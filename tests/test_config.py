import pytest

from scaleseg.config import (
    ConfigError,
    as_float,
    as_float_list,
    as_int,
    check_known,
    parse_config_file,
    parse_config_text,
)


def test_parse_basics():
    cfg = parse_config_text("""
# comment
points = 5000
voxel_sizes=0.4,0.3
  noise = 0.05
""")
    assert cfg == {"points": "5000", "voxel_sizes": "0.4,0.3", "noise": "0.05"}


def test_parse_errors():
    with pytest.raises(ConfigError, match=r":1: expected key=value"):
        parse_config_text("no equals sign")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a=1\na=2")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("=3")


def test_parse_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs=3\n")
    assert parse_config_file(p) == {"epochs": "3"}
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "missing.cfg")


def test_check_known():
    check_known({"a": "1"}, ("a", "b"), source="s")
    with pytest.raises(ConfigError, match="unknown"):
        check_known({"c": "1"}, ("a", "b"), source="s")


def test_typed_accessors():
    cfg = {"n": "7", "x": "2.5", "xs": "1.0, 0.5", "bad": "zippy"}
    assert as_int(cfg, "n", 0) == 7
    assert as_int(cfg, "missing", 3) == 3
    assert as_float(cfg, "x", 0.0) == 2.5
    assert as_float_list(cfg, "xs", ()) == (1.0, 0.5)
    assert as_float_list(cfg, "missing", (0.2,)) == (0.2,)
    for fn in (as_int, as_float, as_float_list):
        with pytest.raises(ConfigError):
            fn(cfg, "bad", None)
