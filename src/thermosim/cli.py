"""Command-line front end.

Three subcommands::

    thermosim protocol     --config FILE [--samples N [--seed S]]
    thermosim interference --config FILE --phi-steps K --out FILE [--convention paper|corrected]
    thermosim eigencheck   --dim D --beta B [--fd-step H] [--assert-tol T]

Reports are strict JSON on stdout, a NaN or inf value written as null; interference
sweeps are written as CSV.  All finite floats are rendered with 9 significant digits so
identical invocations on the same numpy build and numpy CPU dispatch (which picks by
instruction set the ``np.exp`` kernel of the qubit weights and of the finite-difference
route) produce byte-identical output at any BLAS thread count.  Exit codes: 0 success,
1 configuration or I/O error (one-line diagnostic on stderr), 2 numerical assertion
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from math import isfinite
from pathlib import Path

import numpy as np

from .interference import _closed_form, _readout_probability
from .protocol import OUTCOME_ORDER, ProtocolConfig, post_select, sample_outcomes, success_probability
from .qcore import ConfigurationError
from .tempop import eigencheck_purified
from .thermal import QuditHamiltonian, ThermalSpec

_EIGENCHECK_ENERGY_SEED = 987654321  # fixed so repeated runs see the same levels
_CONFIG_FIELDS = ("beta_a", "beta_b", "energies_a", "energies_b", "phi")
# the largest --phi-steps and --dim, larger sizes refused up front: at 10^6 an interference
# run peaks at about 130 MB (the two tolist()s it formats), an eigencheck at 220 to 235 MB
MAX_POINTS = 10**6


def _field(name: str, build, *args):
    """``build(*args)``, a refusal re-raised with the config field ``name`` in front."""
    try:
        return build(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config field {name!r}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    repeated = sorted(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
    if repeated:
        raise ConfigurationError(f"config repeats keys {repeated}")
    return dict(pairs)


def load_config(path: str | Path) -> ProtocolConfig:
    """Parse a flat JSON config with exactly the ``_CONFIG_FIELDS``, each once.

    Only the document's shape is checked here.  Each field's value goes as it
    is to the library's own rule: ``energies_*`` to :class:`QuditHamiltonian`,
    ``beta_*`` to :class:`ThermalSpec`, whose refusals are prefixed with the
    field's name (``config field 'beta_a': beta must be finite and
    nonnegative, got -1.0``), and both specs and ``phi`` to
    :class:`ProtocolConfig`, whose refusals already name ``spec_a``,
    ``spec_b`` or ``phi``.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    except ConfigurationError:  # a ValueError too: _unique_keys' refusal keeps its words
        raise
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past sys.get_int_max_str_digits()
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigurationError(f"config {path} nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_FIELDS))
    missing = sorted(set(_CONFIG_FIELDS) - set(doc))
    if unknown or missing:
        raise ConfigurationError(
            f"config keys mismatch: unknown {unknown or 'none'}, missing {missing or 'none'}"
        )
    specs = []
    for side in "ab":
        hamiltonian = _field(f"energies_{side}", QuditHamiltonian, doc[f"energies_{side}"])
        specs.append(_field(f"beta_{side}", ThermalSpec, doc[f"beta_{side}"], hamiltonian))
    return ProtocolConfig(*specs, doc["phi"])


def _rounded(obj):
    """Recursively round floats to 9 significant digits for stable output; a NaN or inf is None (JSON null)."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}") if isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _emit(report: dict) -> None:
    print(json.dumps(_rounded(report), indent=2))


def cmd_protocol(args: argparse.Namespace) -> int:
    if args.seed is not None and args.samples is None:
        raise ConfigurationError("--seed needs --samples")
    cfg = load_config(args.config)
    results = {o: post_select(cfg, o) for o in OUTCOME_ORDER}
    phi_plus = results[OUTCOME_ORDER[0]].state.amps
    report = {
        "outcome_probabilities": {o.value: r.probability for o, r in results.items()},
        "success_probability": {
            "phi_branch": success_probability(cfg, "phi"),
            "psi_branch": success_probability(cfg, "psi"),
        },
        "phi_plus_state": {
            "basis": ["00", "01", "10", "11"],
            "amplitudes_re": phi_plus.real.tolist(),
            "amplitudes_im": phi_plus.imag.tolist(),
        },
    }
    if args.samples is not None:
        seed = args.seed if args.seed is not None else 0
        counts = sample_outcomes(cfg, args.samples, seed)
        report["samples"] = {
            "count": args.samples,
            "seed": seed,
            "counts": {o.value: counts[o] for o in OUTCOME_ORDER},
        }
    _emit(report)
    return 0


def cmd_interference(args: argparse.Namespace) -> int:
    if not 2 <= args.phi_steps <= MAX_POINTS:
        raise ConfigurationError(f"--phi-steps must be between 2 and {MAX_POINTS}")
    cfg = load_config(args.config)
    grid = np.linspace(0.0, 2.0 * np.pi, args.phi_steps)
    if args.convention is None:
        probs = _readout_probability(*cfg.weights(), grid)
    else:
        probs = _closed_form(cfg, args.convention, grid)
    with Path(args.out).open("w") as out:
        out.write("phi,probability\n")
        out.writelines(f"{phi:.9g},{prob:.9g}\n" for phi, prob in zip(grid.tolist(), probs.tolist()))
    return 0


def cmd_eigencheck(args: argparse.Namespace) -> int:
    if not 2 <= args.dim <= MAX_POINTS:
        raise ConfigurationError(f"--dim must be between 2 and {MAX_POINTS}")
    if args.assert_tol is not None and not (isfinite(args.assert_tol) and args.assert_tol >= 0.0):
        raise ConfigurationError("--assert-tol must be finite and nonnegative")
    rng = np.random.default_rng(_EIGENCHECK_ENERGY_SEED)
    levels = rng.uniform(-5.0, 5.0, args.dim).tolist()
    spec = ThermalSpec(args.beta, QuditHamiltonian(levels))
    heads = {"analytic": {}}
    if args.fd_step is not None:
        heads["finite_difference"] = {"step": args.fd_step}
    checks = {key: eigencheck_purified(spec, fd_step=head.get("step")) for key, head in heads.items()}
    del spec  # its level tuple and array, 16 MB at 10^6 levels, need not live through the report
    report = {"dim": args.dim, "beta": args.beta, "energies": levels}
    for key, check in checks.items():
        report[key] = {**heads[key], "rayleigh": check.rayleigh, "expected": check.expected, "residual": check.residual}
    _emit(report)
    if args.assert_tol is not None:
        for key, check in checks.items():
            deviations = (("residual", check.residual), ("|rayleigh - expected|", abs(check.rayleigh - check.expected)))
            for what, value in deviations:
                if not value <= args.assert_tol:  # written so that NaN fails too
                    name = key.replace("_", "-")
                    print(f"error: {name} {what} {value:.3e} exceeds {args.assert_tol:.3e}", file=sys.stderr)
                    return 2
    return 0


class _NegativeNumbers:
    """argparse's negative-number matcher: a string that starts with "-" and that ``float()`` reads."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return text.startswith("-")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for numerical
    # assertion failures here, so bad usage maps to the config-error code 1
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads only plain decimals such as -0.001 as negative numbers; -1e-3, -inf, -nan
        # and -1_0 would be taken for options, so a negative value could not reach its own diagnostic
        self._negative_number_matcher = _NegativeNumbers

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thermosim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protocol", help="Bell-outcome probabilities and post-selected state")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("interference", help="fringe sweep over phi in [0, 2*pi]")
    p.add_argument("--config", required=True)
    p.add_argument("--phi-steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--convention", choices=("paper", "corrected"), default=None)
    p.set_defaults(func=cmd_interference)

    p = sub.add_parser("eigencheck", help="eigen relation of the purified Gibbs state")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--fd-step", type=float, default=None)
    p.add_argument("--assert-tol", type=float, default=None)
    p.set_defaults(func=cmd_eigencheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
