"""Mutants of the package's exactness shortcuts and guards, as data.

Each entry replaces one exact ``snippet`` of ``file`` (a path below
``src/closurelab``) by ``replacement``; ``attacks`` names the function whose
proof or guard the change breaks, and ``tests`` is the pytest selection
that must fail on the mutated copy.  ``test_mutants.py`` checks that every
snippet occurs exactly once in its file; ``run_mutants.py`` applies the
mutants one at a time to a copy of ``src/`` and runs their selections.

An entry of ``EQUIVALENT`` changes no result, for the reason it states; the
runner applies none of them.

Every change that adds an integer shortcut, a docstring proof or a guard
adds its mutants here.
"""

MUTANTS = [
    {
        "name": "residual-extra-power-of-q",
        "file": "closure.py",
        "snippet": "cq = c * q ** J",
        "replacement": "cq = c * q ** (J + 1)",
        "attacks": "closure._first_residual",
        "tests": ["tests/test_closure.py::test_certificate_reads_the_solve_record"],
    },
    {
        "name": "residual-without-d",
        "file": "closure.py",
        "snippet": "cq * p ** K - d * horner(a, p, d)",
        "replacement": "cq * p ** K - horner(a, p, d)",
        "attacks": "closure._first_residual",
        "tests": ["tests/test_closure.py::test_certificate_reads_the_solve_record"],
    },
    {
        "name": "solve-without-residual-check",
        "file": "closure.py",
        "snippet": "    if not _first_residual(df, coeffs, levels):",
        "replacement": "    if False:",
        "attacks": "closure.solve_full_levels",
        "tests": ["tests/test_closure.py::test_perturbed_root_at_a_full_level_has_no_solution"],
    },
    {
        "name": "solve-without-distinct-energies",
        "file": "closure.py",
        "snippet": "    if len(set(nodes)) != len(nodes):",
        "replacement": "    if False:",
        "attacks": "closure.solve_full_levels",
        "tests": ["tests/test_closure.py::test_repeated_energy_takes_the_linear_system"],
    },
    {
        "name": "solve-admits-a-partial-level",
        "file": "closure.py",
        "snippet": "        if len(roots) != K:",
        "replacement": "        if len(roots) > K:",
        "attacks": "closure.solve_full_levels",
        "tests": ["tests/test_closure.py::test_perturbed_level_coordinate"],
    },
    {
        "name": "certificate-record-without-X",
        "file": "closure.py",
        "snippet": "if df.certified_closures.get(X) == tuple(polys):",
        "replacement": "if tuple(polys) in df.certified_closures.values():",
        "attacks": "closure.verify_closure_identity",
        "tests": ["tests/test_closure.py::test_certificate_reads_the_solve_record"],
    },
    {
        "name": "vandermonde-doubled-D",
        "file": "exactalg.py",
        "snippet": "        D = horner(T, pi, 1)",
        "replacement": "        D = 2 * horner(T, pi, 1)",
        "attacks": "exactalg.inverse_vandermonde",
        "tests": ["tests/test_exactalg.py"],
    },
    {
        "name": "eigen-residual-without-energy",
        "file": "families.py",
        "snippet": "    B[:len(w)] = map(operator.add, B, map(e.__mul__, w))",
        "replacement": "    B[:len(w)] = B[:len(w)]",
        "attacks": "families._residual_numerators",
        "tests": ["tests/test_families.py"],
    },
    {
        "name": "seed-A0-sign-of-q1",
        "file": "families.py",
        "snippet": "(P - s * q1)",
        "replacement": "(P + s * q1)",
        "attacks": "families.seed_numerators",
        "tests": ["tests/test_families.py"],
    },
    {
        "name": "recurrence-row-without-scaling",
        "file": "recurrence.py",
        "snippet": "        v *= p",
        "replacement": "        v *= 1",
        "attacks": "recurrence.expand_in_basis",
        "tests": ["tests/test_recurrence.py"],
    },
    {
        "name": "rat-reads-any-fraction-string",
        "file": "exactalg.py",
        "snippet": "        if not _SIGNED_NUMBER.fullmatch(value):",
        "replacement": "        if False:",
        "attacks": "exactalg.rat",
        "tests": ["tests/test_exactalg.py::test_rat_reads_only_the_number_grammar"],
    },
    {
        "name": "parser-without-bit-bound",
        "file": "exactalg.py",
        "snippet": "            if exponent * bits > MAX_PARSE_BITS:",
        "replacement": "            if False:",
        "attacks": "exactalg.parse_poly",
        "tests": ["tests/test_exactalg.py::test_parse_poly_bounds_the_bits_of_nested_powers"],
    },
    {
        "name": "frozen-allows-assignment",
        "file": "exactalg.py",
        "snippet": '        raise AttributeError(f"{type(self).__name__} is immutable")',
        "replacement": "        object.__setattr__(self, *_)",
        "attacks": "exactalg.Frozen",
        "tests": ["tests/test_runtime_checks.py::test_value_types_refuse_assignment"],
    },
]

EQUIVALENT = [
    {
        "name": "vandermonde-sign-flipped-division",
        "file": "exactalg.py",
        "snippet": "            acc = acc * pi + P[m]",
        "replacement": "            acc = acc * pi - P[m]",
        "attacks": "exactalg.inverse_vandermonde",
        "reason": "the division then yields -T_i, so every entry of column i and "
                  "D_i = T_i(p_i) change sign together, and g_i takes the sign of "
                  "D_i: col/g_i and D_i/g_i, hence W and s, are unchanged",
    },
]
