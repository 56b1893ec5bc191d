"""CLI integration: --cache-dir/--no-cache and the `repro cache` command."""

import json

import pytest

from repro.cli import main


def test_experiment_cold_then_warm_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    assert main(["table2", "--scale", "tiny",
                 "--cache-dir", str(cache), "--outdir", str(cold_dir)]) == 0
    cold_out = capsys.readouterr().out
    assert main(["table2", "--scale", "tiny",
                 "--cache-dir", str(cache), "--outdir", str(warm_dir)]) == 0
    warm_out = capsys.readouterr().out
    assert "misses" in cold_out and "0 hits" in cold_out
    assert "0 misses" in warm_out
    for name in ("result.txt", "result.csv"):
        assert (cold_dir / "table2" / name).read_bytes() == \
            (warm_dir / "table2" / name).read_bytes()
    manifest = json.loads((warm_dir / "table2" / "manifest.json").read_text())
    assert manifest["cache"]["hits"] > 0 and manifest["cache"]["misses"] == 0
    assert manifest["cache"]["fingerprint"]


def test_no_cache_flag_wins_over_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    assert main(["table2", "--scale", "tiny", "--no-cache"]) == 0
    assert "cache" not in capsys.readouterr().out.split("wall")[1]
    assert not (tmp_path / "envcache").exists()


def test_env_cache_dir_is_used(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    assert main(["table2", "--scale", "tiny"]) == 0
    assert "misses" in capsys.readouterr().out
    assert (tmp_path / "envcache" / "entries").is_dir()


def test_sweep_and_tradeoff_accept_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["sweep", "--model", "V100-PCIE-32GB", "--n", "1024",
                 "--cache-dir", cache]) == 0
    assert "1 misses" in capsys.readouterr().out
    assert main(["sweep", "--model", "V100-PCIE-32GB", "--n", "1024",
                 "--cache-dir", cache]) == 0
    assert "1 hits, 0 misses" in capsys.readouterr().out
    assert main(["tradeoff", "--scale", "tiny", "--platform", "24-Intel-2-V100",
                 "--config", "HB", "--cache-dir", cache]) == 0
    first = capsys.readouterr().out
    assert main(["tradeoff", "--scale", "tiny", "--platform", "24-Intel-2-V100",
                 "--config", "HB", "--cache-dir", cache]) == 0
    second = capsys.readouterr().out
    assert "0 misses" in second
    assert first.split("(cache")[0] == second.split("(cache")[0]


def test_cache_stats_verify_gc_clear(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    main(["table2", "--scale", "tiny", "--cache-dir", cache])
    capsys.readouterr()

    assert main(["cache", "--cache-dir", cache, "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries:" in out and "kind SweepPoints:" in out

    assert main(["cache", "--cache-dir", cache, "verify"]) == 0
    assert "0 corrupt" in capsys.readouterr().out

    # Corrupt one entry on disk: verify must flag it and exit 1.
    from repro.cache import CacheStore

    [info] = [e for e in CacheStore(cache).iter_entries()][:1]
    info.path.write_text("garbage")
    assert main(["cache", "--cache-dir", cache, "verify"]) == 1
    assert "1 corrupt" in capsys.readouterr().out

    assert main(["cache", "--cache-dir", cache, "gc", "--max-size", "0"]) == 0
    assert "freed" in capsys.readouterr().out
    assert main(["cache", "--cache-dir", cache, "clear"]) == 0
    capsys.readouterr()
    assert main(["cache", "--cache-dir", cache, "stats"]) == 0
    assert "entries: 0" in capsys.readouterr().out


def test_cache_gc_size_and_age_parsers():
    from repro.cli import _parse_age, _parse_size

    assert _parse_size("1024") == 1024
    assert _parse_size("4K") == 4096
    assert _parse_size("1.5M") == int(1.5 * 1024**2)
    assert _parse_size("2G") == 2 * 1024**3
    assert _parse_size("2GB") == 2 * 1024**3
    assert _parse_age("90") == 90.0
    assert _parse_age("90s") == 90.0
    assert _parse_age("30m") == 1800.0
    assert _parse_age("12h") == 43200.0
    assert _parse_age("7d") == 7 * 86400.0
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_size("lots")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_age("soon")


@pytest.mark.parametrize("flag, value", [
    ("--max-size", "-1M"), ("--max-size", "inf"), ("--max-size", "nan"),
    ("--max-age", "-1d"), ("--max-age", "inf"), ("--max-age", "nan"),
])
def test_cache_gc_rejects_negative_and_non_finite_limits(tmp_path, capsys,
                                                         flag, value):
    from repro.cache import CacheStore
    from repro.cache.keys import digest

    store = CacheStore(tmp_path / "cache")
    for i in range(3):
        store.write(digest({"n": i}), "json", {"i": i})
    with pytest.raises(SystemExit) as exc:
        main(["cache", "--cache-dir", str(store.root), "gc", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert store.stats()["entries"] == 3


def test_chaos_cli_uses_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["chaos", "--scale", "tiny", "--cache-dir", cache]) == 0
    cold = capsys.readouterr().out
    assert main(["chaos", "--scale", "tiny", "--cache-dir", cache]) == 0
    warm = capsys.readouterr().out
    assert "0 misses" in warm
    assert cold.split("(cache")[0] == warm.split("(cache")[0]
