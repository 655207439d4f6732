"""The mutation table: small wrong changes to the code, each with the tests
that must fail on it.  Run it from the repository as

    python tests/mutants.py

For each row it checks that the old text occurs exactly once in its file,
makes the change in a temporary copy of the repository and runs the row's
tests there with pytest.  A mutation survives when one of its tests passes.
A row whose old text is not in its file, code that an earlier version of
the repository does not have, is skipped, and the last line counts the
skipped rows.  The script prints one line per row and exits 1 when a mutation survives or a row cannot run (its old text
occurs twice, or pytest cannot collect its tests); pytest does not collect
this file."""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PENTANGLE = "src/surgeryforge/pentangle.py"
FAMILIES = "src/surgeryforge/families.py"
NORMSEQ = "src/surgeryforge/normseq.py"
CLI = "src/surgeryforge/cli.py"
T_PENTANGLE = "tests/test_pentangle.py::"
T_FAMILIES = "tests/test_families.py::"
T_NORMSEQ = "tests/test_normseq.py::"
T_CLI = "tests/test_cli.py::"
T_ACCEPTANCE = "tests/test_acceptance.py::"

# (file, old text, new text, tests that must fail)
MUTANTS = [
    # --- the pentangle kernel: the ne groups and their classes
    (PENTANGLE,
     "            key = ident, self.ga[j], self.vm1[j]\n",
     "            key = ident, self.ga[j]\n",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8",
      T_CLI + "test_pentangle_verify_bound_14_pinned"]),
    (PENTANGLE,
     "            key = ident, self.ga[j], self.vm1[j]\n",
     "            key = ident, self.vm1[j]\n",
     [T_PENTANGLE + "test_ne_groups_match_the_oracle_grouping"]),
    (PENTANGLE,
     "(in0, inf, m1, self.triv[j], self.gb[j], self.gc[j]), len(ids))",
     "(in0, inf, m1, self.triv[j]), len(ids))",
     [T_PENTANGLE + "test_mask_engine_matches_object_predicates_sampled",
      T_PENTANGLE + "test_classes_keep_simplification_rows_apart"]),
    (PENTANGLE,
     "(in0, inf, m1, self.triv[j], self.gb[j], self.gc[j]), len(ids))",
     "(in0, inf, m1, self.gb[j], self.gc[j]), len(ids))",
     [T_PENTANGLE + "test_ne_corner_on_a_simplification_pair_stands_alone"]),
    (PENTANGLE,
     "        key = ident, ga_i >> j & 1, f\n",
     "        key = ident, 0, f\n",
     [T_PENTANGLE + "test_ne_corner_on_a_simplification_pair_stands_alone"]),
    (PENTANGLE,
     "            if self.off0 >> k & 1:\n"
     "                near_off0 |= self.vinf[k]\n",
     "",
     [T_PENTANGLE + "test_near_masks_of_the_walk",
      T_CLI + "test_pentangle_verify_bound_14_pinned"]),
    # --- the pentangle kernel: counting the parts
    (PENTANGLE,
     "    bad = [(k, se) for k in _bits(rest)\n"
     "           for se in _bits(bad_c & rows[k])] if n_bad else []\n",
     "    bad = []\n",
     [T_PENTANGLE + "test_classes_keep_simplification_rows_apart"]),
    (PENTANGLE,
     "    visit = cand & tb.ga_support & ~simp_k\n",
     "    visit = 0\n",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8"]),
    (PENTANGLE,
     "        if sub := js & vinfi:\n"
     "            yield sub, parts, simp_k, simp_base\n",
     "",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8"]),
    (PENTANGLE,
     "key = (simp_k, simp_base, cand, c, rows is fulls)",
     "key = (simp_k, cand, c, rows is fulls)",
     [T_PENTANGLE + "test_classes_keep_simplification_rows_apart"]),
    (PENTANGLE,
     "key = (simp_k, simp_base, cand, c, rows is fulls)",
     "key = (simp_k, simp_base, cand, c)",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8"]),
    (PENTANGLE,
     "w_all = 48 * off + 24 * on",
     "w_all = 48 * off + 48 * on",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8"]),
    (PENTANGLE,
     "counterexamples.update((i, j, k, se) for j in _bits(js)\n",
     "counterexamples.update((i, j, k, se) for j in _bits(js & -js)\n",
     [T_PENTANGLE
      + "test_chunks_match_least_corner_oracle_with_counterexamples"]),
    (PENTANGLE,
     "counterexamples.update((i, j, k, se) for j in _bits(js)\n"
     "                                           for k, se in bad)\n",
     "counterexamples.update(g((i, j, k, se)) for j in _bits(js)\n"
     "                                           for k, se in bad"
     " for g in _KLEIN)\n",
     [T_PENTANGLE + "test_grouped_ne_corners_expand_counterexamples"]),
    # --- the pentangle report: orbit images of the walked counterexamples
    (PENTANGLE,
     "for ce in r[2] for g in _KLEIN})))",
     "for ce in r[2] for g in _KLEIN[:1]})))",
     [T_PENTANGLE + "test_counterexamples_reported_when_nothing_simplifies"]),
    (PENTANGLE,
     "for ce in sorted(\n                {g(ce)",
     "for ce in (\n                {g(ce)",
     [T_PENTANGLE + "test_counterexamples_reported_when_nothing_simplifies"]),
    (PENTANGLE,
     '"necessary_all_three": sum(r[0] for r in results),',
     '"necessary_all_three": results[0][0],',
     [T_CLI + "test_pentangle_verify_bound_14_pinned",
      T_PENTANGLE + "test_counterexamples_reported_when_nothing_simplifies"]),
    (PENTANGLE,
     '"simplified": sum(r[1] for r in results)}',
     '"simplified": results[0][1]}',
     [T_CLI + "test_pentangle_verify_exit_and_determinism"]),
    # --- the pentangle chart rows
    (PENTANGLE,
     '("sw", lambda m: (m - 1, -m, 1, -1))',
     '("sw", lambda m: (m - 1, -m, 1, 1))',
     [T_ACCEPTANCE + "test_criterion_09_pentangle_sweep"]),
    (PENTANGLE,
     '("se", lambda m: (1, -1, 0, 1))',
     '("se", lambda m: (1, 1, 0, 1))',
     [T_PENTANGLE + "test_rows_match_chart_words_exhaustive_height_2"]),
    (PENTANGLE,
     '("sw", lambda n: (0, -1, 1, 0))',
     '("sw", lambda n: (0, 1, 1, 0))',
     [T_PENTANGLE + "test_row_matrices_have_determinant_one"]),
    (PENTANGLE,
     "if abs(s.den - s.num) == 1 else None)",
     "if abs(s.den - s.num) == 1 and s.den else None)",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8"]),
    # --- the pentangle pool's chunks
    (PENTANGLE,
     "    return [walk[w::workers] for w in range(min(workers, len(walk)))]",
     "    return [walk[w::workers] for w in range(\n"
     "        workers if workers <= len(walk) else len(walk) - 1)]",
     [T_PENTANGLE + "test_kernel_matches_visit_oracle_by_chunk"]),
    (PENTANGLE,
     "        after = tb.m0 >> i << i | tb.off0\n"
     "        for js, parts, simp_k, simp_base in _pair_masks(tb, i, after):",
     "        after = tb.m0 >> i << i | tb.off0 | 1 << corners[0]\n"
     "        for js, parts, simp_k, simp_base in _pair_masks(tb, i, after):",
     [T_PENTANGLE + "test_kernel_matches_visit_oracle_by_chunk",
      T_CLI + "test_pentangle_verify_exit_and_determinism"]),
    (PENTANGLE,
     "    if len(chunks) > 1:\n",
     "    if len(chunks) > 0:\n",
     [T_PENTANGLE + "test_pool_sized_by_chunks"]),
    (PENTANGLE,
     "            pass  # fork or a pipe failed; the report is the same in"
     " process\n",
     "            raise\n",
     [T_PENTANGLE + "test_pool_that_cannot_start_sweeps_in_process"]),
    (PENTANGLE,
     "    return max(1, min(cpus, len(walk) // 83)) if hasattr(os, \"fork\")",
     "    return max(1, min(cpus, len(walk) // 82)) if hasattr(os, \"fork\")",
     [T_PENTANGLE + "test_workers_sized_by_walk_and_cpus"]),
    (PENTANGLE,
     "    return max(1, min(cpus, len(walk) // 83)) if hasattr(os, \"fork\")",
     "    return max(1, len(walk) // 83) if hasattr(os, \"fork\")",
     [T_PENTANGLE + "test_workers_sized_by_walk_and_cpus"]),
    # --- the simplification lists and their symmetries
    (PENTANGLE,
     "        (_ordered(nw, se), _ordered(sw, ne)),",
     "        (_ordered(nw, se), _ordered(sw, se)),",
     [T_PENTANGLE + "test_simplifies_invariant_height_4_exhaustive"]),
    (PENTANGLE,
     "_MIR_A = _map_pairs(_P3_B, reciprocal)",
     "_MIR_A = _map_pairs(_P3_A, reciprocal)",
     [T_PENTANGLE + "test_simplifies_invariant_height_4_exhaustive",
      T_ACCEPTANCE + "test_criterion_09_pentangle_sweep"]),
    (PENTANGLE,
     "NONHYP_LISTS, P3_LISTS,\n                         MIRROR_P3_LISTS))",
     "NONHYP_LISTS, P3_LISTS,\n"
     "                         MIRROR_P3_LISTS[:2] + (frozenset(),)))",
     [T_PENTANGLE + "test_simplifies_invariant_height_4_exhaustive",
      T_ACCEPTANCE + "test_criterion_09_pentangle_sweep"]),
    (PENTANGLE,
     "    [(rat(-1), rat(2)), (rat(1, 2), rat(1, 2))])))\n",
     "    [(rat(-1), rat(2)), (rat(1, 2), rat(2))])))\n",
     [T_PENTANGLE + "test_mirror_exchanges_factoring_lists",
      T_ACCEPTANCE + "test_criterion_09_pentangle_sweep"]),
    (PENTANGLE,
     "_TRIVIAL.isdisjoint([(s.num, s.den) for s in f.corners()])",
     "_TRIVIAL.isdisjoint([(s.num, s.den) for s in f.corners()[:3]])",
     [T_PENTANGLE + "test_simplifies_invariant_height_4_exhaustive",
      T_CLI + "test_reports_match_recorded_digests"]),
    (PENTANGLE,
     "(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))",
     "(0, 1, 2, 3), (1, 0, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0)))",
     [T_PENTANGLE + "test_klein_getters_are_the_named_swaps",
      T_CLI + "test_reports_match_recorded_digests"]),
    (PENTANGLE,
     "    return (a, b) if a <= b else (b, a)\n",
     "    return (a, b)\n",
     [T_PENTANGLE + "test_condition_lists_match_transcription",
      T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8"]),
    # --- the per-triple reference, which the left-right swap test read
    ("tests/pentangle_oracle.py",
     "            x0 |= full if ((t0[k] >> i) & 1 or rec[j]) else rec_mask\n",
     "            x0 |= full if ((t0[k] >> i) & 1 or rec[i]) else rec_mask\n",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8",
      T_PENTANGLE + "test_kernel_masks_match_oracle_exhaustive_bound_5"]),
    ("tests/pentangle_oracle.py",
     "    return tb.triv_mask | tb.ga[k] | tb.gb[j] | tb.gc[i]\n",
     "    return tb.triv_mask | tb.ga[k] | tb.gb[i] | tb.gc[i]\n",
     [T_PENTANGLE + "test_classes_keep_simplification_rows_apart",
      T_PENTANGLE + "test_kernel_masks_match_oracle_exhaustive_bound_5"]),
    ("tests/pentangle_oracle.py",
     "                    key = _key(s, t)\n",
     "                    key = (s.num, s.den), (t.num, t.den)\n",
     [T_PENTANGLE + "test_kernel_matches_oracle_bounds_2_to_8"]),
    # --- census seeds and templates
    (FAMILIES,
     "        if v > 3:\n            yield (2, v)\n",
     "        if v > 4:\n            yield (2, v)\n",
     [T_ACCEPTANCE + "test_criterion_07_census",
      T_FAMILIES + "test_gofk_sequences_match_product_oracle"]),
    (FAMILIES,
     "        if v > 2:\n            yield (v, 2)\n",
     "        if v > 3:\n            yield (v, 2)\n",
     [T_ACCEPTANCE + "test_criterion_07_census",
      T_FAMILIES + "test_seeds_match_four_shape_generator_past_seqmax_8"]),
    (FAMILIES,
     "    for t in range(1, t_bound + 1):\n        yield (t + 2, 3)\n",
     "    for t in range(2, t_bound + 1):\n        yield (t + 2, 3)\n",
     [T_ACCEPTANCE + "test_criterion_07_census",
      T_FAMILIES + "test_seeds_match_single_entry_generator_at_large_bounds"]),
    (FAMILIES,
     "if all(e == 2 for e in seq) and len(seq) > seq_bound:",
     "if all(e == 2 for e in seq) and len(seq) >= seq_bound:",
     [T_ACCEPTANCE + "test_criterion_07_census",
      T_FAMILIES + "test_seeds_match_old_generator_on_bound_grid"]),
    (FAMILIES,
     "first[:-1] + (first[-1] + second[-1] + 1,) + rev[1:])",
     "first[:-1] + (first[-1] + second[-1] + 2,) + rev[1:])",
     [T_CLI + "test_reports_match_recorded_digests",
      T_FAMILIES + "test_template_table_of_the_docstring"]),
    (FAMILIES,
     "        if v <= seq_bound + 2:\n",
     "        if v <= seq_bound + 1:\n",
     [T_ACCEPTANCE + "test_criterion_07_census",
      T_FAMILIES + "test_seeds_match_old_generator_on_bound_grid"]),
    (FAMILIES,
     "    triples += [(n + 1, n, 1) for n in range(1, seq_bound + 1)]\n",
     "    triples += [(n + 1, n, 1) for n in range(1, seq_bound + 2)]\n",
     [T_FAMILIES + "test_gofk_sequences_match_product_oracle",
      T_FAMILIES + "test_seeds_match_old_generator_on_bound_grid",
      T_FAMILIES + "test_census_ok_on_bound_grid"]),
    # --- intersections: coincidences and case 1b
    (FAMILIES,
     "        d = 1 + (c2 - c1) * x\n",
     "        d = 1 + (c1 - c2) * x\n",
     [T_ACCEPTANCE + "test_criterion_10_intersection_analysis",
      T_FAMILIES + "test_coincidence_solvers_match_double_loops"]),
    (FAMILIES,
     "in _coincidences(0, m0, -2, m1)),",
     "in _coincidences(0, m0, -2, m2)),",
     [T_ACCEPTANCE + "test_criterion_10_intersection_analysis",
      T_FAMILIES + "test_intersections_match_oracle_bounds_2_to_30"]),
    (FAMILIES,
     "if d and not x % d and (y := x // d) in ys:",
     "if d and not x % d and (y := x // d) is not None:",
     [T_FAMILIES + "test_coincidence_solvers_match_double_loops"]),
    # --- intersections: case 2b
    (FAMILIES,
     "                and abs(a0 * d0 - b0 * c0) == 1):",
     "                and abs(a0 * d0 - b0 * c0) <= 1):",
     [T_FAMILIES + "test_case_2b_matches_member_loop_on_random_tables"]),
    (FAMILIES,
     "        if (a1 * d1 == b1 * c1 and a1 * d0 + a0 * d1",
     "        if (a1 * d0 + a0 * d1",
     [T_FAMILIES + "test_case_2b_matches_member_loop_on_random_tables"]),
    (FAMILIES,
     "        if (a1 * d1 == b1 * c1 and a1 * d0 + a0 * d1"
     " == b1 * c0 + b0 * c1\n",
     "        if (a1 * d1 == b1 * c1\n",
     [T_FAMILIES + "test_case_2b_matches_member_loop_on_random_tables"]),
    (FAMILIES,
     "                           for slot in uncertified):",
     "                           for slot in uncertified[:1]):",
     [T_FAMILIES + "test_case_2b_matches_member_loop_on_random_tables"]),
    (FAMILIES,
     'results["case_2b_count"] = len(a_m) * len(a_n) - len(bad_2b)',
     'results["case_2b_count"] = len(a_m) * len(a_n)',
     [T_FAMILIES + "test_intersections_bad_a_label_is_a_counterexample"]),
    (FAMILIES,
     "                    bad_2b.append((m, n))",
     "                    bad_2b.append((n, m))",
     [T_CLI + "test_intersection_case_failure_row[case_2b]"]),
    (FAMILIES,
     "            ((pa, pb, pc, pd), (qa, qb, qc, qd)),     # linear in m\n"
     "            ((pa, pc, pb, pd), (qa, qc, qb, qd))):    # linear in n\n",
     "            ((pa, pb, pc, pd), (qa, qb, qc, qd)),):   # linear in m\n",
     [T_FAMILIES + "test_case_2b_is_bound_free"]),
    # --- the point rule
    (NORMSEQ,
     "    if not seq or min(seq) < 2:\n",
     "    if not seq or seq[-1] < 2:\n",
     [T_NORMSEQ + "test_dual_rejects_bad_input"]),
    (NORMSEQ,
     "    if not seq or min(seq) < 2:\n"
     '        raise ValueError("point rule needs a nonempty all->=2 '
     'sequence")\n',
     "",
     [T_NORMSEQ + "test_dual_rejects_bad_input",
      T_CLI + "test_cli_grammar_fuzz"]),
    (NORMSEQ,
     "    if not seq or min(seq) < 2:\n",
     "    if not seq or seq[0] < 2:\n",
     [T_NORMSEQ + "test_dual_rejects_bad_input"]),
    (NORMSEQ,
     '"point rule needs a nonempty all->=2 sequence"',
     '"point rule needs an all->=2 sequence"',
     [T_NORMSEQ + "test_dual_rejects_bad_input"]),
    (NORMSEQ,
     "        b[s] += 1\n",
     "        b[s] += 2\n",
     [T_ACCEPTANCE + "test_criterion_06_norm_sequence_suite",
      T_NORMSEQ + "test_dual_matches_point_rule_oracle"]),
    # --- exponent sums, against the braid chart
    (NORMSEQ,
     "    elif n == 3 and e[1] == 2:\n",
     "    elif n == 3 and e[1] == 2 and e[0] + e[2] < 60:\n",
     [T_NORMSEQ + "test_pattern_rules_match_chart_chain_oracle"]),
    (NORMSEQ,
     "    elif others == [4]:\n",
     "    elif others == [4] and n < 10:\n",
     [T_NORMSEQ + "test_pattern_rules_match_chart_chain_oracle"]),
    (NORMSEQ,
     '        raise ValueError(f"{seq} is not reduced")\n',
     '        raise ValueError(f"{seq} is not a reduced sequence")\n',
     [T_NORMSEQ + "test_pattern_rules_match_chart_chain_oracle"]),
    # --- the acceptance criteria, each the one test of what it checks
    (FAMILIES,
     '(({"mn": 2, "m": 1, "n": 2, "": -1}',
     '(({"mn": 2, "m": 1, "n": 2, "": 1}',
     [T_ACCEPTANCE + "test_criterion_01_family_a_spot_checks"]),
    (FAMILIES,
     '({"p": 8, "q": -13}',
     '({"p": 8, "q": -12}',
     [T_ACCEPTANCE + "test_criterion_02_family_b_spot_checks"]),
    ("src/surgeryforge/simpleknot.py",
     "        if (k * k + eps * (k + 1)) % p == 0:\n",
     "        if (k * k + eps * (k + 1)) % p <= 1:\n",
     [T_ACCEPTANCE + "test_criterion_03_star_solver"]),
    ("src/surgeryforge/simpleknot.py",
     "            out.append((k, (-k * k) % p))\n",
     "            out.append((k, (k * k) % p))\n",
     [T_ACCEPTANCE + "test_criterion_03_star_solver"]),
    ("src/surgeryforge/simpleknot.py",
     "    return tuple(sorted({min(k, p - k) for k, _ in solutions}))\n",
     "    return tuple(sorted({k for k, _ in solutions}))\n",
     [T_ACCEPTANCE + "test_criterion_03_star_solver"]),
    ("src/surgeryforge/simpleknot.py",
     "    return (1 - chi) // 2\n",
     "    return (1 - chi) // 2 or None\n",
     [T_ACCEPTANCE + "test_criterion_04_euler_characteristics"]),
    ("src/surgeryforge/simpleknot.py",
     "        c -= (i * qi) % p - ((i + k) * qi) % p\n",
     "        c -= (i * q) % p - ((i + k) * q) % p\n",
     [T_ACCEPTANCE + "test_criterion_05_simple_knot_equivalences"]),
    ("src/surgeryforge/rationals.py",
     "    return cf_expand(x)\n",
     "    return cf_expand(x)[:64]\n",
     [T_ACCEPTANCE + "test_criterion_06_norm_sequence_suite"]),
    (NORMSEQ,
     "    for a in seq[:-1]:\n",
     "    for a in seq[1:]:\n",
     [T_ACCEPTANCE + "test_criterion_06_norm_sequence_suite"]),
    (FAMILIES,
     "    return CensusEntry(*canonical_triple(p, q, k))\n",
     "    return CensusEntry(p, q, k)\n",
     [T_ACCEPTANCE + "test_criterion_07_census"]),
    (FAMILIES,
     '                "classes": classes,\n',
     '                "classes": knots,\n',
     [T_ACCEPTANCE + "test_criterion_08_alternative_surgery_pipeline"]),
    (FAMILIES,
     'results["case_3a"] == ((2, -2),)',
     'results["case_3a"] == ((-2, 2),)',
     [T_ACCEPTANCE + "test_criterion_10_intersection_analysis"]),
    (FAMILIES,
     '(True, False): "equal"',
     '(True, False): "mirror"',
     [T_ACCEPTANCE + "test_criterion_10_intersection_analysis"]),
    (FAMILIES,
     "    f2 = optsurg_catalog(2, -1)\n",
     "    f2 = optsurg_catalog(2, 1)\n",
     [T_ACCEPTANCE + "test_criterion_11_once_punctured_torus_catalog"]),
    (FAMILIES,
     '    1: (("-1", (-6, 1), (6, -1, 2, -1)),) * 2,\n',
     '    1: (("-1", (-6, 1), (6, -1, 2, 1)),) * 2,\n',
     [T_ACCEPTANCE + "test_criterion_11_once_punctured_torus_catalog"]),
    # --- blocks and the command line
    (NORMSEQ,
     "    except (OverflowError, MemoryError):\n"
     '        raise ValueError(f"{block}',
     "    except OverflowError:\n"
     '        raise ValueError(f"{block}',
     [T_CLI + "test_oversize_block_error_names_the_block"]),
    (NORMSEQ,
     "    except (OverflowError, MemoryError):\n"
     '        raise ValueError(f"the dual',
     "    except OverflowError:\n"
     '        raise ValueError(f"the dual',
     [T_CLI + "test_oversize_entry_error_names_the_sequence"]),
    (CLI,
     "    if args.p < 2:\n",
     "    if args.p < 1:\n",
     [T_CLI + "test_refused_argv_exits_2_with_one_error_line"
      "[simpleknot star 1]"]),
    (FAMILIES,
     "    if seq_bound < 0:\n",
     "    if seq_bound < -1:\n",
     [T_CLI + "test_refused_argv_exits_2_with_one_error_line"
      "[families census --seqmax -1]"]),
    (FAMILIES,
     "    if len(raw) != len(parameters):\n",
     "    if len(raw) < len(parameters):\n",
     [T_CLI + "test_refused_argv_exits_2_with_one_error_line"
      "[families eval B 3 4]"]),
    (CLI,
     "        if sys.stdout is None:  # no file descriptor 1 at start-up\n"
     "            raise OSError(errno.EBADF, os.strerror(errno.EBADF))\n",
     "",
     [T_CLI + "test_closed_stdout_exits_2"]),
    (CLI,
     '    _arg("--format", choices=("json", "csv", "text"), default="json"),\n'
     '    _arg("--timing", action="store_true",\n'
     '         help="attach elapsed_ms to the report"))]\n',
     '    _arg("--timing", action="store_true",\n'
     '         help="attach elapsed_ms to the report"),\n'
     '    _arg("--format", choices=("json", "csv", "text"),\n'
     '         default="json"))]\n',
     [T_CLI + "test_parser_matches_argparse_oracle"]),
    (FAMILIES,
     '        return f"(p,q,k)=({self.p},{self.q},{self.k})"\n',
     '        return f"(p,q,k)=({self.p},{self.k},{self.q})"\n',
     [T_CLI + "test_failing_row_in_every_format"
      "[families census --tmax 2 --seqmax 3]"]),
]


def _pytest(copy, tests):
    """pytest on tests in the copy: (exit code, failed and erring node
    ids from its -rfE summary)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE",
         "-p", "no:cacheprovider", *tests],
        cwd=copy, capture_output=True, text=True)
    return proc.returncode, re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)",
                                       proc.stdout, re.MULTILINE)


def _caught(test, failed):
    """Whether test, a node id or a function whose cases have ids, failed."""
    return any(node == test or node.startswith(test + "[")
               for node in failed)


def main():
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        rows, skipped = [], 0
        for row, (name, old, new, tests) in enumerate(MUTANTS, 1):
            label = f"{row:2d} {name}: {old.strip().splitlines()[0]}"
            count = (copy / name).read_text().count(old)
            if count == 1:
                rows.append((label, name, old, new, tests))
            elif count:
                print(f"{label}\n   BROKEN: old text occurs {count} times")
                problems += 1
            else:
                print(f"{label}\n   skipped, old text not in the file")
                skipped += 1
        # a test that fails unmutated would count every mutation as caught
        code, failed = _pytest(copy, sorted({t for *_, tests in rows
                                             for t in tests}))
        if code:
            print(f"unmutated, pytest exits {code}: " + ", ".join(failed))
            return 1
        for label, name, old, new, tests in rows:
            path = copy / name
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                code, failed = _pytest(copy, tests)
            finally:
                path.write_text(text)
            passing = [t for t in tests if not _caught(t, failed)]
            if code not in (0, 1):
                print(f"{label}\n   BROKEN: pytest exited {code}")
                problems += 1
            elif passing:
                print(f"{label}\n   SURVIVES: " + ", ".join(passing))
                problems += 1
            else:
                print(f"{label}\n   caught by " + ", ".join(tests))
    print(f"{len(MUTANTS)} mutations, {problems} surviving or broken,"
          f" {skipped} skipped")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
