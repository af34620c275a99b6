"""Command-line front end: construct codes, design schemes, run simulations.

Commands read a JSON config file (--config) whose keys may be overridden on
the command line; every output file embeds the resolved config and the tool
version.  Exit codes: 0 ok, 2 bad usage/config, 3 runtime failure.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .channel import ChannelParams, channel_llr_distribution
from .codec import RcpCode, code_to_dict
from .construct import evaluate_bler, mother_code
from .design import HarqScheme, design_scheme
from .simulate import bler_monte_carlo, bound_check, run_campaign

SCHEMA_VERSION = 1
# Scheme SNRs are matched to the requested ones to within this many dB.
SNR_MATCH_DB = 1e-9
# Config keys that must hold integers, with the least value each may take.
# A seed is also below 2^64: it keys 64-bit Philox streams, and a larger one
# would alias a smaller one.
_INT_KEYS = {"n": 1, "k": 1, "m": 1, "q": 1, "t_max": 1, "trials": 1,
             "threads": 1, "seed": 0}


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
    for key, least in _INT_KEYS.items():
        if key in cfg and (type(cfg[key]) is not int or cfg[key] < least):
            raise ConfigError(f"{key} must be an integer >= {least}, "
                              f"got {cfg[key]!r}")
    if cfg["seed"] >= 2 ** 64:
        raise ConfigError(f"seed must be below 2^64, got {cfg['seed']}")
    if "out" in cfg and type(cfg["out"]) is not str:
        raise ConfigError(f"out must be a string, got {cfg['out']!r}")
    return cfg


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return [cfg[k] for k in keys]


def _finite(value) -> bool:
    """A JSON number with a finite float value; a bool is not one."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _snr_list(value):
    """The SNRs of a number or a list of numbers, each one that
    :class:`ChannelParams` takes."""
    values = value if isinstance(value, list) else [value]
    if all(_finite(v) for v in values):
        try:
            return [ChannelParams(snr_db=float(v)).snr_db for v in values]
        except ValueError:
            pass
    raise ConfigError("snr_db must be a finite number with a finite, positive "
                      f"noise variance, or a list of them, got {value!r}")


def _out_dir(cfg: dict) -> Path:
    out = Path(_require(cfg, "out")[0])
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


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _csv_header(fp, command: str, cfg: dict) -> None:
    fp.write(f"# schema_version={SCHEMA_VERSION}\n")
    fp.write(f"# tool=rcpolar {__version__}\n")
    fp.write(f"# command={command}\n")
    fp.write(f"# config={json.dumps(cfg, sort_keys=True)}\n")


def cmd_construct(cfg: dict) -> int:
    n, k, m, snr_db = _require(cfg, "n", "k", "m", "snr_db")
    if not k <= m <= n:
        raise ConfigError(f"need k <= m <= n, got k={k}, m={m}, n={n}")
    if isinstance(snr_db, list):
        raise ConfigError("construct takes a single snr_db")
    params = ChannelParams(snr_db=_snr_list(snr_db)[0])
    out = _out_dir(cfg)
    channel = channel_llr_distribution(params)
    spec, table, plan = mother_code(k, m, n, channel)
    code = RcpCode(spec=spec, rep_vector=plan.r)

    doc = _envelope("construct", cfg)
    doc["code"] = code_to_dict(code)
    doc["bler_estimate"] = evaluate_bler(code, plan)
    _write_json(out / "code.json", doc)

    with open(out / "reliability.csv", "w") as fp:
        _csv_header(fp, "construct", cfg)
        table.to_csv(fp)
    print(f"wrote {out / 'code.json'} and {out / 'reliability.csv'}",
          file=sys.stderr)
    return 0


def cmd_design(cfg: dict) -> int:
    k, t_max, q, snr_db = _require(cfg, "k", "t_max", "q", "snr_db")
    if k > q:
        raise ConfigError(f"need k <= q, got k={k}, q={q}")
    force = cfg.get("force_n1_equals_m", False)
    if type(force) is not bool:
        raise ConfigError(f"force_n1_equals_m must be true or false, "
                          f"got {force!r}")
    snrs = _snr_list(snr_db)
    names = [f"bler_curve_snr{snr:g}.csv" for snr in snrs]
    if len(set(names)) < len(names):
        raise ConfigError(f"snr_db values {snrs} share a curve file name")
    out = _out_dir(cfg)
    schemes = []
    for snr, name in zip(snrs, names):
        channel = channel_llr_distribution(ChannelParams(snr_db=snr))
        scheme, curve = design_scheme(k, t_max, q, channel,
                                      force_first_length_equals_m=force)
        curve_path = out / name
        with open(curve_path, "w") as fp:
            _csv_header(fp, "design", cfg)
            fp.write("n,bler\n")
            for i, e in enumerate(curve.e):
                fp.write(f"{curve.m + i},{float(e)!r}\n")
        schemes.append({
            "snr_db": snr,
            "k": scheme.k,
            "t_max": t_max,
            "q": q,
            "s": list(scheme.s),
            "eta_estimate": scheme.eta_estimate,
            "bler_curve_path": curve_path.name,
        })
        print(f"snr {snr:+.2f} dB -> s={scheme.s} eta~{scheme.eta_estimate:.4f}",
              file=sys.stderr)
    doc = _envelope("design", cfg)
    doc["schemes"] = schemes
    _write_json(out / "schemes.json", doc)
    return 0


def _load_schemes(path: str):
    try:
        doc = json.loads(Path(path).read_text())
        entries = doc["schemes"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read schemes from {path}: {exc}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"{path} has schema_version "
                          f"{doc.get('schema_version')!r}, expected "
                          f"{SCHEMA_VERSION}")
    out = []
    try:
        for entry in entries:
            snr, k, s, eta = (entry[key] for key in
                              ("snr_db", "k", "s", "eta_estimate"))
            if not (_finite(snr) and _finite(eta) and type(k) is int
                    and type(s) is list and all(type(v) is int for v in s)):
                raise ValueError("snr_db and eta_estimate must be finite "
                                 "numbers, k and s integers, got "
                                 f"{entry!r}")
            out.append((ChannelParams(snr_db=float(snr)), HarqScheme(
                k=k, m=s[0], lengths=tuple(s[1:]), eta_estimate=float(eta))))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad scheme in {path}: {exc}")
    return out


def cmd_simulate(cfg: dict) -> int:
    schemes_path, trials = _require(cfg, "schemes", "trials")
    wanted = _snr_list(cfg["snr_db"]) if "snr_db" in cfg else None
    schemes = [(params, scheme)
               for params, scheme in _load_schemes(str(schemes_path))
               if wanted is None
               or any(abs(params.snr_db - w) <= SNR_MATCH_DB for w in wanted)]
    if not schemes:
        raise ConfigError("no scheme matched the requested snr_db values")
    out = _out_dir(cfg)
    seed, threads = cfg["seed"], cfg["threads"]

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

    with open(out / "report.csv", "w") as fp:
        _csv_header(fp, "simulate", cfg)
        fp.write("snr_db,t,pr_e,pr_first_success,eta,ci_pr_e,"
                 "ci_pr_first_success,ci_eta\n")
        for rep in doc["reports"]:
            ci = rep["ci95"]
            for t in range(1, len(rep["pr_e"]) + 1):
                fp.write(f"{rep['snr_db']},{t},{rep['pr_e'][t-1]!r},"
                         f"{rep['pr_first_success'][t-1]!r},{rep['eta']!r},"
                         f"{ci['pr_e'][t-1]!r},{ci['pr_first_success'][t-1]!r},"
                         f"{ci['eta']!r}\n")
    return 0


def cmd_bler(cfg: dict) -> int:
    codes, snr_db, trials = _require(cfg, "codes", "snr_db", "trials")
    if not isinstance(codes, list) or not all(
            isinstance(c, list) and len(c) == 3
            and all(type(v) is int for v in c) and 1 <= c[1] <= c[2] <= c[0]
            for c in codes):
        raise ConfigError("codes must be [n, k, m] integer triples with "
                          f"1 <= k <= m <= n, got {codes!r}")
    snrs = _snr_list(snr_db)
    out = _out_dir(cfg)
    seed, threads = cfg["seed"], cfg["threads"]
    rows = []
    for n, k, m in codes:
        for snr in snrs:
            params = ChannelParams(snr_db=snr)
            print(f"bler ({n},{k},{m}) at {snr:+.2f} dB", file=sys.stderr)
            rows.append(bler_monte_carlo(n, k, m, params, trials, seed,
                                         threads=threads))
    with open(out / "bler.csv", "w") as fp:
        _csv_header(fp, "bler", cfg)
        fp.write("snr_db,n,k,m,trials,errors,bler,ci95,bler_analytic\n")
        for row in rows:
            fp.write(f"{row['snr_db']},{row['n']},{row['k']},{row['m']},"
                     f"{row['trials']},{row['errors']},{row['bler']!r},"
                     f"{row['ci95']!r},{row['bler_analytic']!r}\n")
    return 0


_COMMANDS = {
    "construct": cmd_construct,
    "design": cmd_design,
    "simulate": cmd_simulate,
    "bler": cmd_bler,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcpolar",
        description="Length-adjustable polar coding: construction, "
                    "transmission-scheme design, and Monte Carlo validation.")
    parser.add_argument("--version", action="version",
                        version=f"rcpolar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
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
