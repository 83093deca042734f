import numpy as np
import pytest

from skewbs import load_sample, volle_sample
from skewbs.datasets import load_table


def test_volle_shape_and_summaries(volle):
    assert volle.n == 28 and volle.p == 2
    assert round(volle.s_bar[0], 2) == 118.14
    assert round(volle.s_bar[1], 2) == 99.43
    assert round(volle.r_bar[0], 2) == 113.40
    assert round(volle.r_bar[1], 2) == 84.61


def test_volle_canonicalization():
    raw = volle_sample(raw=True)
    fixed = volle_sample()
    # the seventh pair carries a spurious factor of ten in its first entry
    assert raw.data[6, 0] == 960.0
    assert fixed.data[6, 0] == 96.0
    assert fixed.data[6, 1] == 132.0
    assert np.all(fixed.data < 400.0)
    untouched = raw.data < 400.0
    np.testing.assert_array_equal(fixed.data[untouched], raw.data[untouched])


def test_load_sample_volle_alias(volle):
    np.testing.assert_array_equal(load_sample("volle").data, volle.data)
    swapped = load_sample("volle", columns=[1, 0])
    np.testing.assert_array_equal(swapped.data, volle.data[:, [1, 0]])


def test_load_table_formats(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text(
        "# fatigue pairs\n"
        "\n"
        "s1,s2\n"
        "1.5, 2.5\n"
        "3 4\n"
    )
    data = load_table(f)
    np.testing.assert_array_equal(data, [[1.5, 2.5], [3.0, 4.0]])
    by_name = load_table(f, columns=["s2"])
    np.testing.assert_array_equal(by_name, [[2.5], [4.0]])
    by_index = load_table(f, columns=[1, 0])
    np.testing.assert_array_equal(by_index, [[2.5, 1.5], [4.0, 3.0]])


def test_load_table_error_reporting(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n1,2\nx,4\n")
    with pytest.raises(ValueError, match="line 3"):
        load_table(f)
    g = tmp_path / "ragged.csv"
    g.write_text("1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="row 2"):
        load_table(g)
    h = tmp_path / "empty.csv"
    h.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no data"):
        load_table(h)
    f2 = tmp_path / "cols.csv"
    f2.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="unknown column"):
        load_table(f2, columns=["c"])
    with pytest.raises(ValueError, match="out of range"):
        load_table(f2, columns=[7])


def test_load_sample_rejects_nonpositive(tmp_path):
    f = tmp_path / "neg.csv"
    f.write_text("1,2\n3,-4\n5,6\n")
    with pytest.raises(ValueError, match="row 2, column 2"):
        load_sample(f)


def test_load_table_strips_a_byte_order_mark(tmp_path):
    # a kept mark makes the first data row fail to parse and become the header
    f = tmp_path / "bom.csv"
    f.write_text("\ufeff1.5,2.5\n3.0,4.0\n2.0,1.0\n", encoding="utf-8")
    np.testing.assert_array_equal(load_table(f), [[1.5, 2.5], [3.0, 4.0], [2.0, 1.0]])
    g = tmp_path / "bom_header.csv"
    g.write_text("\ufefft1,t2\n1.5,2.5\n3.0,4.0\n", encoding="utf-8")
    np.testing.assert_array_equal(load_table(g, columns=["t1"]), [[1.5], [3.0]])
