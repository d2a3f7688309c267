"""Command-line front end: expansion, folding, validity, certificates, xi streams."""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .cf import CfSequence, CfUndefinedError, convergents, evaluate, fold, fold_unit, fold_unit_neg
from .gaussian import (
    ZERO,
    BudgetError,
    GaussianInt,
    GaussianRational,
    format_gaussian_int,
    format_gaussian_rational,
    parse_gaussian_int,
)
from .geometry import Validity, export_state_table, get_automaton, is_valid
from .hcf import hcf_expand
from .spectrum import (
    MAX_POWER_BITS,
    build_xi,
    check_tail_sandwich,
    encode_base_b,
    estimate_exponent,
    schedule_from_tau,
    unit_seed,
    variant_schedule,
)
from .zaremba import (
    DESK_NORM_CAP,
    CertificateError,
    brute_force_min_K,
    certify,
    emit_certificates,
    supported_bases,
    wide_int_strings,
)

# Work budget of `hcf expand`: the largest component size, in bits, of the parsed
# fraction.  It prints one convergent per digit, so its output grows about 4x per
# doubling of the operands: at 8192 bits a random fraction prints 26 MB in 1.4 s
# on a 2-CPU machine.  The (-2+i)**4096 certificate fraction, 4756 bits, is admitted.
_MAX_EXPAND_BITS = 8192

# Work budget of `encode`: the largest component size, in bits, of the value.
# encode_base_b takes time quadratic in it: at 16384 bits base -1+i gives
# 32 769 digits in 0.45 s on a 2-CPU machine, and 32768 bits take 1.7 s.
_MAX_ENCODE_BITS = 16384


# The oracle's denominators have norm at most DESK_NORM_CAP, so components of at most this many bits.
_MAX_SEARCH_BITS = (DESK_NORM_CAP.bit_length() + 1) // 2

# Every supported base has components of at most this many bits.
_MAX_BASE_BITS = max(max(abs(b.re), abs(b.im)) for b in supported_bases()).bit_length()


def _component_digits(text: str) -> int:
    """The digits of the longest number written in text, underscores not counted (0 when there is none)."""
    return max((len(run.replace("_", "")) for run in re.findall(r"\d[\d_]*", text)), default=0)


def _gate(text: str, max_bits: int = 0, refusal: str = "") -> str:
    """The operand gate: text, leading zeros dropped, once the numbers it writes pass both limits.

    A number of D decimal digits, leading zeros dropped, is at least
    10**(D - 1), so of more than 3.321 (D - 1) bits; when that reaches
    max_bits (0: no budget), text is refused by BudgetError(refusal), or by
    the work-budget message when no refusal is given.  Past Python's integer
    string limit in force (0: no cap), it is refused by a BudgetError naming
    the digit count, before int() would refuse it with a message of its own.
    Leading zeros after '.' or '_' stay: they are places of the same number.
    """
    text = re.sub(r"(?<![.\d_])0+(?=\d)", "", text)
    digits = _component_digits(text)
    if max_bits and (digits - 1) * 3321 // 1000 >= max_bits:
        raise BudgetError(refusal or f"a component exceeds the work budget of {max_bits} bits")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if 0 < limit < digits:
        raise BudgetError(f"a {digits}-digit operand exceeds the integer string limit of {limit} digits")
    return text


def _parse_operand(text: str, max_bits: int = 0, refusal: str = "") -> GaussianInt:
    """parse_gaussian_int behind the operand gate; a work budget is then checked on the exact bit count.

    A refusal given names a limit that the library checks on the value itself,
    with the same message, so only the CLI's own work budgets are checked here.
    """
    value = parse_gaussian_int(_gate(text, max_bits, refusal))
    bits = max(abs(value.re), abs(value.im)).bit_length()
    if max_bits and not refusal and bits > max_bits:
        raise BudgetError(f"a {bits}-bit component exceeds the work budget of {max_bits} bits")
    return value


def _parse_integer(text: str, option: str) -> int:
    """int(text) behind the operand gate, refused without the text echoed when it is not an integer."""
    text = _gate(text)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option} must be an integer") from None


def _parse_digits(text: str) -> tuple[GaussianInt, ...]:
    parts = [chunk.strip() for chunk in _gate(text).split(",") if chunk.strip()]
    if not parts:
        raise ValueError("empty digit list")
    return tuple(parse_gaussian_int(chunk) for chunk in parts)


def _format_digits(digits: tuple[GaussianInt, ...]) -> str:
    return ",".join(format_gaussian_int(d) for d in digits)


def _parse_expand_fraction(text: str) -> GaussianRational:
    """The fraction, each part through the operand gate and the work budget before it is reduced."""
    parts = [_parse_operand(part, _MAX_EXPAND_BITS) for part in text.split("/")]
    if len(parts) > 2:
        raise ValueError("cannot parse Gaussian rational: more than one '/'")
    return GaussianRational(*parts)


def _parse_xi_fraction(text: str, option: str, max_bits: int) -> Fraction:
    """Fraction(text) behind the operand gate, refused before Fraction builds 10**e when its parts could pass max_bits.

    A mantissa of D digits and an exponent e give a numerator and a denominator
    of at most D + |e| decimal digits, so of fewer than 3.322 (D + |e|) + 1 bits.
    """
    mantissa, _, exponent = text.lower().partition("e")
    magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    digits = sum(c.isdigit() for c in mantissa)
    if magnitude.isdecimal():
        digits += int(magnitude) if len(magnitude) <= 12 else 10**12
    if digits * 3322 // 1000 + 1 > max_bits:
        raise BudgetError(f"{option} has a numerator or denominator over the work budget of {max_bits} bits")
    return Fraction(_gate(text))


def _cmd_hcf_expand(args: argparse.Namespace) -> int:
    value = _parse_expand_fraction(args.fraction)
    expansion = hcf_expand(value)
    table = convergents(CfSequence(expansion.integer_part, expansion.digits))
    if args.format == "csv":
        print("n,digit,p,q")
        for n in range(table.last_index + 1):
            digit = expansion.integer_part if n == 0 else expansion.digits[n - 1]
            print(f"{n},{format_gaussian_int(digit)},{format_gaussian_int(table.p(n))},"
                  f"{format_gaussian_int(table.q(n))}")
    else:
        print(f"value = {format_gaussian_rational(value)}")
        print(f"head = {format_gaussian_int(expansion.integer_part)}")
        print(f"digits = {_format_digits(expansion.digits)}")
        for n in range(table.last_index + 1):
            print(f"convergent.{n} = {format_gaussian_rational(table.value(n))}")
    return 0


def _cmd_cf_eval(args: argparse.Namespace) -> int:
    digits = _parse_digits(args.digits)
    value = evaluate(CfSequence(ZERO, digits))
    print(format_gaussian_rational(value))
    return 0


def _cmd_cf_fold(args: argparse.Namespace) -> int:
    word = CfSequence(ZERO, _parse_digits(args.digits))
    if args.unit:
        folded = fold_unit(word)
    elif args.unit_neg:
        folded = fold_unit_neg(word)
    else:
        folded = fold(word, _parse_operand(args.middle))
    print(_format_digits(folded.tail))
    return 0


def _cmd_validity_check(args: argparse.Namespace) -> int:
    verdict = is_valid(_parse_digits(args.digits))
    print(verdict.value)
    return 1 if verdict is Validity.INVALID else 0


def _cmd_prototype_explore(args: argparse.Namespace) -> int:
    auto = get_automaton()
    print(f"states = {len(auto.states)}")
    for state in auto.states:
        print(f"state.{state.index} = {state.label}")
    if args.export is not None:
        table = export_state_table(auto)
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(table)
        print(f"exported = {args.export}")
    return 0


def _cmd_zaremba_certify(args: argparse.Namespace) -> int:
    operand = args.base.strip()
    digits = _component_digits(operand)
    name = operand if digits <= 20 else f"a {digits}-digit component"  # as certify names a long base
    base = _parse_operand(operand, _MAX_BASE_BITS, f"unsupported base: {name}")
    cert = certify(base, _parse_integer(args.power, "--power"))
    text = emit_certificates([cert])
    sys.stdout.write(text)
    if args.emit is not None:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_zaremba_search(args: argparse.Namespace) -> int:
    result = brute_force_min_K(_parse_operand(args.den, _MAX_SEARCH_BITS, "oracle restricted to desk scale"))
    print(f"numerator = {format_gaussian_int(result.numerator)}")
    print(f"max_digit_norm = {result.k_sq}")
    print(f"digits = {_format_digits(result.digits)}")
    return 0


def _parse_variant(text: str) -> tuple[int, ...]:
    if not text.startswith("w:") or not text[2:] or set(text[2:]) - {"0", "1"}:
        raise ValueError("variant must look like w:0110 (one bit per stage)")
    return tuple(int(bit) for bit in text[2:])


def _cmd_xi(args: argparse.Namespace) -> int:
    base = _parse_operand(args.base)
    stages = _parse_integer(args.stages, "--stages")
    if stages < 1:
        raise ValueError("need at least one stage")
    # schedule_from_tau(..., stages + 1) raises tau to a power of at least
    # stages + 5, so it refuses any tau with parts past this share of the budget.
    # It refuses more than MAX_POWER_BITS.bit_length() + 1 stages before it reads
    # tau, so a count past that takes the share of the largest it admits and
    # gets the library's stage-budget message, not a share of 0 bits.
    share = MAX_POWER_BITS // (min(stages, MAX_POWER_BITS.bit_length()) + 5)
    tau = _parse_xi_fraction(args.tau, "--tau", share)
    lam = _parse_xi_fraction(args.lam, "--lambda", MAX_POWER_BITS)
    schedule = schedule_from_tau(tau, lam, base, stages + 1)
    if args.variant is not None:
        word = _parse_variant(args.variant)
        if len(word) != stages:
            raise ValueError("variant bit count must equal the stage count")
        schedule = variant_schedule(schedule, base, word)
    xi = build_xi(unit_seed(base, schedule.v0), schedule, base, stages=stages)
    brackets = estimate_exponent(xi, stages + 1)
    v = schedule.v()
    failed = False
    rows = []
    for m in range(stages + 1):
        if m <= stages - 3:
            ok = check_tail_sandwich(xi, m)
            sandwich = "pass" if ok else "FAIL"
            failed = failed or not ok
        else:
            sandwich = "-"
        rows.append((m, v[m], len(xi.digits(m)), sandwich, *brackets[m]))
    if args.format == "records":
        for m, vm, count, sandwich, lo, hi in rows:
            print(f"stage.{m} = v {vm}, digits {count}, sandwich {sandwich}, exponent [{lo}, {hi}]")
    else:
        print("stage,v,digit_count,sandwich,exponent_lo,exponent_hi")
        for row in rows:
            print(",".join(str(x) for x in row))
    return 1 if failed else 0


def _cmd_encode(args: argparse.Namespace) -> int:
    expansion = encode_base_b(_parse_operand(args.value, _MAX_ENCODE_BITS), _parse_operand(args.base))
    joiner = "" if expansion.base.norm <= 10 else ","
    print(joiner.join(str(d) for d in reversed(expansion.digits)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hurwitzcf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    hcf_cmd = sub.add_parser("hcf", help="canonical expansions").add_subparsers(required=True)
    expand = hcf_cmd.add_parser("expand", help="expand an exact fraction into digits")
    expand.add_argument("fraction", help="Gaussian rational like '10/27' or '5-6i / -7-24i'")
    expand.add_argument("--format", choices=("records", "csv"), default="records")
    expand.set_defaults(handler=_cmd_hcf_expand)

    cf_cmd = sub.add_parser("cf", help="finite continued fractions").add_subparsers(required=True)
    cf_eval = cf_cmd.add_parser("eval", help="evaluate a digit list exactly")
    cf_eval.add_argument("digits", help="comma-separated digits like '3,-3,-3'")
    cf_eval.set_defaults(handler=_cmd_cf_eval)
    cf_fold = cf_cmd.add_parser("fold", help="fold a digit list")
    cf_fold.add_argument("digits")
    which = cf_fold.add_mutually_exclusive_group(required=True)
    which.add_argument("--middle", help="middle digit for the long fold")
    which.add_argument("--unit", action="store_true", help="x = +1 fold, unit absorbed")
    which.add_argument("--unit-neg", action="store_true", help="x = -1 fold, unit absorbed")
    cf_fold.set_defaults(handler=_cmd_cf_fold)

    validity_cmd = sub.add_parser("validity", help="cylinder interior tests").add_subparsers(required=True)
    check = validity_cmd.add_parser("check", help="classify a digit word")
    check.add_argument("digits")
    check.set_defaults(handler=_cmd_validity_check)

    proto_cmd = sub.add_parser("prototype", help="prototype-set automaton").add_subparsers(required=True)
    explore = proto_cmd.add_parser("explore", help="list the recorded open-box automaton's states")
    explore.add_argument("--export", metavar="PATH", help="write the state table as CSV")
    explore.set_defaults(handler=_cmd_prototype_explore)

    zar_cmd = sub.add_parser("zaremba", help="bounded-digit certificates").add_subparsers(required=True)
    cert = zar_cmd.add_parser("certify", help="build and verify a certificate")
    cert.add_argument("--base", required=True)
    cert.add_argument("--power", required=True)
    cert.add_argument("--emit", metavar="PATH", help="also write the certificate to a file")
    cert.set_defaults(handler=_cmd_zaremba_certify)
    search = zar_cmd.add_parser("search", help="exhaustive minimal-K oracle")
    search.add_argument("--den", required=True, help="denominator, e.g. '3-4i'")
    search.set_defaults(handler=_cmd_zaremba_search)

    xi_cmd = sub.add_parser("xi", help="prescribed-exponent numbers")
    xi_cmd.add_argument("--base", required=True)
    xi_cmd.add_argument("--tau", required=True, help="growth ratio as p/q, at least 2")
    xi_cmd.add_argument("--lambda", required=True, dest="lam", help="scale as p/q, positive")
    xi_cmd.add_argument("--stages", required=True)
    xi_cmd.add_argument("--variant", help="w:<bits>, one bit per stage; bit n raises the schedule's "
                        "n-th increment by the least s with N(base)**s >= 8, e.g. w:01")
    xi_cmd.add_argument("--format", choices=("csv", "records"), default="csv")
    xi_cmd.set_defaults(handler=_cmd_xi)

    enc = sub.add_parser("encode", help="base -A+i / -A-i digit strings")
    enc.add_argument("value", help="Gaussian integer like '5' or '-3+7i'")
    enc.add_argument("--base", required=True)
    enc.set_defaults(handler=_cmd_encode)
    return top


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    # Space-prefix operands that begin with '-' (negative digits, Gaussian
    # values) so the option scanner does not mistake them for flags; every
    # downstream parser strips whitespace.
    guarded = [f" {a}" if a.startswith("-") and not a.startswith("--") and a != "-h" else a for a in raw]
    args = _build_parser().parse_args(guarded)
    try:
        # Admitted inputs and outputs may pass Python's default limit of 4300
        # digits; every operand's digits are counted at the gate before int().
        with wide_int_strings():
            return args.handler(args)
    except CertificateError as exc:
        print(str(exc), file=sys.stderr)
        for name, passed in exc.transcript:
            print(f"check.{name} = {'pass' if passed else 'FAIL'}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, CfUndefinedError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
