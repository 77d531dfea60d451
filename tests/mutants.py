"""Mutants of the package's exactness shortcuts and guards, as data.

Each entry replaces one exact ``snippet`` of ``file`` (a path below
``src/closurelab``, data files included) by ``replacement``; ``attacks`` names the function whose
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
        "snippet": '        raise ValueError(f"not an exact rational p/q: {value!r}")',
        "replacement": "        return Fraction(value)",
        "attacks": "exactalg.rat",
        "tests": ["tests/test_exactalg.py::test_rat_reads_only_the_number_grammar"],
    },
    {
        "name": "number-grammar-unicode-digits",
        "file": "exactalg.py",
        "snippet": '_DIGITS = "[0-9]+"',
        "replacement": '_DIGITS = r"\\d+"',
        "attacks": "exactalg.rat",
        "tests": ["tests/test_exactalg.py::test_rat_reads_only_the_number_grammar"],
    },
    {
        "name": "rat-reads-a-bool",
        "file": "exactalg.py",
        "snippet": "    if isinstance(value, int) and not isinstance(value, bool):",
        "replacement": "    if isinstance(value, int):",
        "attacks": "exactalg.rat",
        "tests": ["tests/test_exactalg.py::test_rat_reads_only_the_number_grammar"],
    },
    {
        "name": "rat-without-zero-denominator",
        "file": "exactalg.py",
        "snippet": "    if not q:",
        "replacement": "    if False:",
        "attacks": "exactalg.rat",
        "tests": ["tests/test_exactalg.py::test_rat_reads_only_the_number_grammar"],
    },
    {
        "name": "rat-without-digit-bound",
        "file": "exactalg.py",
        "snippet": "    if max(len(num), len(den)) > MAX_DIGITS:",
        "replacement": "    if False:",
        "attacks": "exactalg.rat",
        "tests": ["tests/test_exactalg.py::test_rat_reads_only_the_number_grammar"],
    },
    {
        "name": "paramset-accepts-unknown-names",
        "file": "families.py",
        "snippet": "        if set(values) != set(PARAMETERS[fam]):",
        "replacement": "        if not set(PARAMETERS[fam]) <= set(values):",
        "attacks": "families.ParamSet",
        "tests": ["tests/test_cli.py::test_config_error_exit_code[plugin-parameters-extra]"],
    },
    {
        "name": "plugin-json-depth-uncaught",
        "file": "families.py",
        "snippet": "        except RecursionError:",
        "replacement": "        except ZeroDivisionError:",
        "attacks": "families.load_family_plugin",
        "tests": ["tests/test_cli.py::test_huge_numbers_are_refused_at_once[plugin-nesting]"],
    },
    {
        "name": "seed-read-by-int",
        "file": "cli.py",
        "snippet": '    seed = _read("CLOSURELAB_SEED", count, os.environ.get("CLOSURELAB_SEED", "0"))',
        "replacement": '    seed = _read("CLOSURELAB_SEED", int, os.environ.get("CLOSURELAB_SEED", "0"))',
        "attacks": "cli.cmd_spectrum",
        "tests": ["tests/test_cli.py::test_config_error_exit_code[seed-underscore]"],
    },
    {
        "name": "parser-without-bit-bound",
        "file": "exactalg.py",
        "snippet": "            if exponent * base_bits > MAX_PARSE_BITS:",
        "replacement": "            if False:",
        "attacks": "exactalg.parse_poly",
        "tests": ["tests/test_exactalg.py::test_parse_poly_bounds_the_bits_of_nested_powers"],
    },
    {
        "name": "residual-every-a-times-q",
        "file": "closure.py",
        "snippet": "*a, a_minus1 = (horner(row, e, q) for row in A)",
        "replacement": "*a, a_minus1 = (q * horner(row, e, q) for row in A)",
        "attacks": "closure._first_residual",
        "tests": ["tests/test_closure.py::test_certificate_reads_the_solve_record"],
    },
    {
        "name": "N0-with-g-unshifted",
        "file": "families.py",
        "snippet": "c1_poly(fam, params, s - 1, -s - 1)",
        "replacement": "c1_poly(fam, params, s, -s - 1)",
        "attacks": "families.cleared_hamiltonian",
        "tests": ["tests/test_families.py"],
    },
    {
        "name": "full-levels-interpolated-at-degree-L",
        "file": "closure.py",
        "snippet": "    bounds = degree_bounds(K)\n    inverses",
        "replacement": "    bounds = dict.fromkeys(degree_bounds(K), L)\n    inverses",
        "attacks": "closure.solve_full_levels",
        "tests": ["tests/test_closure.py::test_each_coefficient_keeps_its_own_degree_bound"],
    },
    {
        "name": "degenerate-level-divisible-by-m",
        "file": "families.py",
        "snippet": "not x % (2 * m)",
        "replacement": "not x % m",
        "attacks": "families.jacobi_degenerate_level",
        "tests": ["tests/test_families.py", "tests/test_eta_reference.py"],
    },
    {
        "name": "degenerate-level-types-swapped",
        "file": "families.py",
        "snippet": "shift = 2 * d + 1 if t == \"I\" else -2 * d - 1",
        "replacement": "shift = -2 * d - 1 if t == \"I\" else 2 * d + 1",
        "attacks": "families.jacobi_degenerate_level",
        "tests": ["tests/test_families.py", "tests/test_eta_reference.py"],
    },
    {
        "name": "N0-without-c1-denominator",
        "file": "families.py",
        "snippet": "[cb.den * c for c in c2]",
        "replacement": "list(c2)",
        "attacks": "families.cleared_hamiltonian",
        "tests": ["tests/test_families.py"],
    },
    {
        "name": "rule-B-unscaled",
        "file": "families.py",
        "snippet": "(_scaled(B, D), F)",
        "replacement": "(B.num, F)",
        "attacks": "families.DeformedFamily.P",
        "tests": ["tests/test_families.py"],
    },
    {
        "name": "system-solve-recorded",
        "file": "closure.py",
        "snippet": "        return solve_closure_system(df, X)\n    df.certified_closures",
        "replacement": "        cd = solve_closure_system(df, X)\n    df.certified_closures",
        "attacks": "closure.solve_closure",
        "tests": ["tests/test_closure.py::test_linear_system_solves_are_not_recorded"],
    },
    {
        "name": "factored-exponent",
        "file": "data/appendix_b.json",
        "snippet": "-1536*(10*z^3 + 3*(26*g+33)*z^2",
        "replacement": "-1536*(10*z^3 + 3*(26*g+33)*z^3",
        "attacks": "data/appendix_b.json (the L[1I] Y=eta transcription)",
        "tests": ["tests/test_appendix_b.py"],
    },
    {
        "name": "parser-without-product-bit-bound",
        "file": "exactalg.py",
        "snippet": "            if bits(acc) + bits(factor) > MAX_PARSE_BITS:",
        "replacement": "            if False:",
        "attacks": "exactalg.parse_poly",
        "tests": ["tests/test_exactalg.py::test_parse_poly_bounds_the_bits_of_products"],
    },
    {
        "name": "parser-without-nesting-bound",
        "file": "exactalg.py",
        "snippet": "        if depth > MAX_PARSE_NESTING:",
        "replacement": "        if False:",
        "attacks": "exactalg.parse_poly",
        "tests": ["tests/test_exactalg.py::test_parse_poly_bounds_the_nesting"],
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
