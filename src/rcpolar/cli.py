"""Command-line front end: construct codes, design schemes, run simulations.

Commands read a JSON config file (--config) whose keys may be overridden on
the command line; every output file embeds the resolved config and the tool
version.  Exit codes: 0 ok; 2 bad usage or config, found before the output
directory is made; 3 any failure after that.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .channel import ChannelParams, channel_llr_distribution
from .codec import code_to_dict
from .construct import construct_rcp, mother_codes
from .design import HarqScheme, design_scheme
from .simulate import bler_monte_carlo, bound_check, run_campaign

SCHEMA_VERSION = 1
# Scheme SNRs are matched to the requested ones to within this many dB.
SNR_MATCH_DB = 1e-9
# Config keys that must hold integers, with the least and largest value each
# may take.  Lengths (n, k, m, q, those of bler codes and schemes.json
# schemes) and t_max, which counts lengths, are at most MAX_LENGTH, as a run
# holds arrays sized by them.  Counts are held in numpy int64; a seed keys
# 64-bit Philox streams, and a larger one would alias a smaller one.
MAX_LENGTH = 2 ** 20
_INT_KEYS = {**dict.fromkeys(("n", "k", "m", "q", "t_max"), (1, MAX_LENGTH)),
             "trials": (1, 2 ** 63 - 1), "threads": (1, 2 ** 63 - 1),
             "seed": (0, 2 ** 64 - 1)}


class ConfigError(Exception):
    pass


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if args.out is not None:
        cfg["out"] = args.out
    cfg.setdefault("seed", 0)
    cfg.setdefault("threads", 1)
    _, required, optional = _COMMANDS[args.command]
    required += ("out",)
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    unknown = sorted(cfg.keys() - {*required, *optional, "seed", "threads"})
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: "
                          f"{', '.join(unknown)}")
    for key in _INT_KEYS:
        if key in cfg:
            _integer(cfg[key], key)
    for key in ("out", "schemes"):
        if key in cfg and (type(cfg[key]) is not str or "\0" in cfg[key]):
            raise ConfigError(f"{key} must be a string without NUL, got "
                              f"{cfg[key]!r}")
    return cfg


def _integer(value, key: str, name: str = "") -> None:
    """Exit 2 unless ``value`` is a JSON integer in ``_INT_KEYS[key]``."""
    least, most = _INT_KEYS[key]
    if type(value) is not int or not least <= value <= most:
        raise ConfigError(f"{name or key} must be an integer in [{least}, "
                          f"{most}], got {value!r}")


def _checked(call, *args, **kwargs):
    """``call(*args, **kwargs)``, made before any output: a ValueError from
    the library's argument checks is bad config."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _snr_list(value) -> list:
    """The :class:`ChannelParams` of a number or a nonempty list of them."""
    values = value if isinstance(value, list) else [value]
    try:  # an empty list is tried as [None], which ChannelParams rejects
        return [ChannelParams(snr_db=v) for v in values or [None]]
    except ValueError:
        raise ConfigError("snr_db must be a finite number with a finite, "
                          "positive noise variance, or a nonempty list of "
                          f"them, got {value!r}")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _envelope(command: str, cfg: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "rcpolar",
        "tool_version": __version__,
        "command": command,
        "config": cfg,
    }


@contextlib.contextmanager
def _replacing(path: Path):
    """A text file that takes the place of ``path`` once the block ends:
    it is written under a temporary name in the same directory, then
    renamed over ``path`` (``os.replace``, atomic on POSIX), so a run that
    fails or is killed midway never leaves a cut-off file.  If the block
    raises, the temporary file is removed and ``path`` is left as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, doc: dict) -> None:
    with _replacing(path) as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _write_csv(path: Path, command: str, cfg: dict, columns, rows) -> None:
    """The envelope as "#" lines, the column line, then one line per row of
    Python ints and floats, each written as its repr."""
    with _replacing(path) as fp:
        fp.write(f"# schema_version={SCHEMA_VERSION}\n"
                 f"# tool=rcpolar {__version__}\n"
                 f"# command={command}\n"
                 f"# config={json.dumps(cfg, sort_keys=True)}\n")
        fp.write(",".join(columns) + "\n")
        for row in rows:
            fp.write(",".join(map(repr, row)) + "\n")


def cmd_construct(cfg: dict) -> int:
    if isinstance(cfg["snr_db"], list):
        raise ConfigError("construct takes a single snr_db")
    (params,) = _snr_list(cfg["snr_db"])
    code, plan, table = _checked(construct_rcp, cfg["n"], cfg["k"], cfg["m"],
                                 channel_llr_distribution(params))
    out = _out_dir(cfg)

    doc = _envelope("construct", cfg)
    doc["code"] = code_to_dict(code)
    doc["bler_estimate"] = plan.union_bound
    _write_json(out / "code.json", doc)
    _write_csv(out / "reliability.csv", "construct", cfg,
               ("index", "mean", "pe"),
               zip(range(table.size), table.means.tolist(), table.pe.tolist()))
    print(f"wrote {out / 'code.json'} and {out / 'reliability.csv'}",
          file=sys.stderr)
    return 0


def cmd_design(cfg: dict) -> int:
    k, t_max, q = cfg["k"], cfg["t_max"], cfg["q"]
    force = cfg.get("force_n1_equals_m", False)
    if type(force) is not bool:
        raise ConfigError(f"force_n1_equals_m must be true or false, "
                          f"got {force!r}")
    snrs = _snr_list(cfg["snr_db"])
    names = [f"bler_curve_snr{params.snr_db:g}.csv" for params in snrs]
    if len(set(names)) < len(names):
        raise ConfigError(f"snr_db {cfg['snr_db']} share a curve file name")
    designs = [_checked(design_scheme, k, t_max, q,
                        channel_llr_distribution(params),
                        force_first_length_equals_m=force) for params in snrs]
    out = _out_dir(cfg)
    schemes = []
    for params, name, (scheme, curve) in zip(snrs, names, designs):
        curve_path = out / name
        _write_csv(curve_path, "design", cfg, ("n", "bler"),
                   enumerate(curve.e.tolist(), curve.m))
        schemes.append({
            "snr_db": params.snr_db,
            "k": scheme.k,
            "t_max": t_max,
            "q": q,
            "s": list(scheme.s),
            "eta_estimate": scheme.eta_estimate,
            "bler_curve_path": curve_path.name,
        })
        print(f"snr {params.snr_db:+.2f} dB -> s={scheme.s} "
              f"eta~{scheme.eta_estimate:.4f}", file=sys.stderr)
    doc = _envelope("design", cfg)
    doc["schemes"] = schemes
    _write_json(out / "schemes.json", doc)
    return 0


def _load_schemes(path: str):
    try:
        doc = json.loads(Path(path).read_text())
        entries = doc["schemes"]
    # ValueError covers a JSON syntax error.
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read schemes from {path}: {exc}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"{path} has schema_version "
                          f"{doc.get('schema_version')!r}, expected "
                          f"{SCHEMA_VERSION}")
    out = []
    try:
        for entry in entries:
            s = entry["s"]
            scheme = HarqScheme(k=entry["k"], m=s[0], lengths=tuple(s[1:]),
                                eta_estimate=entry["eta_estimate"])
            # HarqScheme orders every other length below the last one.
            _integer(scheme.lengths[-1], "n", f"s[-1] in {path}")
            out.append((ChannelParams(snr_db=entry["snr_db"]), scheme))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad scheme in {path}: {exc}")
    return out


def cmd_simulate(cfg: dict) -> int:
    wanted = _snr_list(cfg["snr_db"]) if "snr_db" in cfg else None
    schemes = [(params, scheme)
               for params, scheme in _load_schemes(cfg["schemes"])
               if wanted is None or any(abs(params.snr_db - w.snr_db)
                                        <= SNR_MATCH_DB for w in wanted)]
    if not schemes:
        raise ConfigError("no scheme matched the requested snr_db values")
    out = _out_dir(cfg)
    trials, seed, threads = cfg["trials"], cfg["seed"], cfg["threads"]

    doc = _envelope("simulate", cfg)
    doc["reports"] = []
    for params, scheme in schemes:
        print(f"simulating snr {params.snr_db:+.2f} dB, {trials} trials",
              file=sys.stderr)
        report = run_campaign(scheme, params, trials, seed, threads=threads)
        check = bound_check(report)
        # Every SimReport field, with (m, lengths) written as s.
        entry = dataclasses.asdict(report)
        entry["s"] = [entry.pop("m"), *entry.pop("lengths")]
        entry["bound_check"] = {
            "rows": [dataclasses.asdict(row) for row in check.rows],
            "eta_holds": check.eta_holds, "all_hold": check.all_hold}
        doc["reports"].append(entry)
    _write_json(out / "report.json", doc)

    _write_csv(out / "report.csv", "simulate", cfg,
               ("snr_db", "t", "pr_e", "pr_first_success", "eta", "ci_pr_e",
                "ci_pr_first_success", "ci_eta"),
               ((rep["snr_db"], t, pr_e, first, rep["eta"], ci_pr_e, ci_first,
                 rep["ci95"]["eta"])
                for rep in doc["reports"]
                for t, (pr_e, first, ci_pr_e, ci_first) in enumerate(zip(
                    rep["pr_e"], rep["pr_first_success"],
                    rep["ci95"]["pr_e"], rep["ci95"]["pr_first_success"]), 1)))
    return 0


def cmd_bler(cfg: dict) -> int:
    codes, trials = cfg["codes"], cfg["trials"]
    if not isinstance(codes, list) or not codes or not all(
            isinstance(c, list) and len(c) == 3 for c in codes):
        raise ConfigError("codes must be a nonempty list of [n, k, m] "
                          f"triples, got {codes!r}")
    snrs = _snr_list(cfg["snr_db"])
    channel = channel_llr_distribution(snrs[0])
    for i, (n, k, m) in enumerate(codes):
        for key, value in zip("nkm", (n, k, m)):
            _integer(value, key, f"{key} in codes[{i}]")
        # mother_codes checks at the call; no GA pass runs
        _checked(mother_codes, k, [m], n, channel)
    out = _out_dir(cfg)
    seed, threads = cfg["seed"], cfg["threads"]
    rows = []
    for n, k, m in codes:
        for params in snrs:
            print(f"bler ({n},{k},{m}) at {params.snr_db:+.2f} dB",
                  file=sys.stderr)
            rows.append(bler_monte_carlo(n, k, m, params, trials, seed,
                                         threads=threads))
    columns = ("snr_db", "n", "k", "m", "trials", "errors", "bler", "ci95",
               "bler_analytic")
    _write_csv(out / "bler.csv", "bler", cfg, columns,
               ([row[c] for c in columns] for row in rows))
    return 0


# Each command's function, required keys and optional keys.  Every command
# also requires out and takes seed and threads; any other key is an error.
_COMMANDS = {
    "construct": (cmd_construct, ("n", "k", "m", "snr_db"), ()),
    "design": (cmd_design, ("k", "t_max", "q", "snr_db"),
               ("force_n1_equals_m",)),
    "simulate": (cmd_simulate, ("schemes", "trials"), ("snr_db",)),
    "bler": (cmd_bler, ("codes", "snr_db", "trials"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcpolar",
        description="Length-adjustable polar coding: construction, "
                    "transmission-scheme design, and Monte Carlo validation.")
    parser.add_argument("--version", action="version",
                        version=f"rcpolar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, _, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (value parsed as JSON)")
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--threads", type=int, help="worker processes")
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
