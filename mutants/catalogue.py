"""Mutation catalogue: small deliberate faults that the test suite must catch.

Each entry names a file (relative to the repository root), an old snippet
that occurs exactly once in it, the snippet that replaces it and the pytest
node ids that must each fail with the fault in place. ``mutants/run.py``
applies the entries one at a time to a copy of the tree and runs their
tests. ``tests/test_mutants.py`` checks in tier-1 that every old snippet
still occurs exactly once, so an edit that moves a snippet cannot leave the
catalogue quietly stale.

EQUIVALENT lists mutants that no test can tell from the original, each with
the reason; they are kept so that nobody adds them as kills by mistake.

Standard library only; pytest does not collect this directory.
"""

from typing import NamedTuple, Tuple

MACSIM = "src/hpavsim/macsim.py"
SHARING = "src/hpavsim/sharing.py"
RNG = "src/hpavsim/rng.py"
TRACEIO = "src/hpavsim/traceio.py"
TONEMAP = "src/hpavsim/tonemap.py"
METRICS = "src/hpavsim/metrics.py"
ROUTING = "src/hpavsim/routing.py"
CLI = "src/hpavsim/cli.py"


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...] = ()  # node ids that must each fail
    reason: str = ""  # for an equivalent mutant: why no test can fail


MUTANTS = (
    # the engine loop's shared collision block, sensed-busy pass and
    # re-evaluation check
    Mutant(
        id="macsim-barge-busy-from-first-boundary",
        file=MACSIM,
        old="        busy_us += end - start\n",
        new="        busy_us += end - hit\n",
        tests=(
            "tests/test_macsim.py::TestBasicContract::test_conservation_of_time",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    Mutant(
        id="macsim-barge-colliders-unsorted",
        file=MACSIM,
        old="colliders = [i for i in stations if not bc[i]]  # tx and bargers\n",
        new="colliders = [tx] + [i for i in stations if not bc[i] and i != tx]\n",
        tests=(
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    Mutant(
        id="macsim-reeval-on-collision-windows",
        file=MACSIM,
        old="reeval = ready == 1 and next_reeval is not None",
        new="reeval = next_reeval is not None",
        tests=(
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim.py::TestReevaluation::test_periodic_full_spectrum_suspension",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    Mutant(
        id="macsim-collision-stage-cap-dropped",
        file=MACSIM,
        old=(
            "            for i in colliders:\n"
            "                st = stage[i] = min(stage[i] + 1, last_stage)\n"
        ),
        new=(
            "            for i in colliders:\n"
            "                st = stage[i] = stage[i] + 1\n"
        ),
        tests=(
            "tests/test_macsim.py::TestDeferralCounters::test_stage_capped_at_last",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    Mutant(
        id="macsim-sensed-busy-skipped-on-collisions",
        file=MACSIM,
        old=(
            "        for i in stations:\n"
            "            if not bc[i]:\n"
            "                continue\n"
        ),
        new=(
            "        for i in stations if ready == 1 else ():\n"
            "            if not bc[i]:\n"
            "                continue\n"
        ),
        tests=(
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim.py::TestIdleRunDigest::test_digest",
            "tests/test_macsim_property.py::test_sensed_busy_rule",
        ),
    ),
    # the window plans' spectrum totals
    Mutant(
        id="macsim-primary-keeps-full-spectrum",
        file=MACSIM,
        old="full[i][k - 1] - alloc.shared_total(links[p])",
        new="full[i][k - 1]",
        tests=(
            "tests/test_macsim.py::TestSpectrumAccounting::test_ss_on_with_engagements",
            "tests/test_macsim.py::TestSSReplayOracle::"
            "test_ss_on_run_equals_replay_of_ss_off_run",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    Mutant(
        id="macsim-secondary-total-over-primary-tonemap",
        file=MACSIM,
        old="alloc.shared_total(links[alloc.secondary])",
        new="alloc.shared_total(links[p])",
        tests=(
            "tests/test_macsim.py::TestSpectrumAccounting::test_ss_on_with_engagements",
            "tests/test_macsim.py::TestSSReplayOracle::"
            "test_ss_on_run_equals_replay_of_ss_off_run",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    # the contention memo and the per-table accounting
    Mutant(
        id="macsim-memo-key-without-ss",
        file=MACSIM,
        old="@lru_cache(maxsize=1)\ndef _contend(",
        new=(
            "def _memo_without_ss(contend):\n"
            "    memo = {}\n"
            "\n"
            "    def memoized(*key):\n"
            "        if key[:-1] not in memo:\n"
            "            memo.clear()\n"
            "            memo[key[:-1]] = contend(*key)\n"
            "        return memo[key[:-1]]\n"
            "\n"
            "    memoized.__wrapped__, memoized.cache_clear = contend, memo.clear\n"
            "    return memoized\n"
            "\n"
            "\n"
            "@_memo_without_ss\n"
            "def _contend("
        ),
        tests=(
            "tests/test_macsim_property.py::test_contention_memo_is_transparent",
        ),
    ),
    Mutant(
        # an lru_cache over the key without the MacParams, so that the
        # memo's counts stay readable
        id="macsim-memo-key-ignores-mac",
        file=MACSIM,
        old="@lru_cache(maxsize=1)\ndef _contend(",
        new=(
            "def _memo_ignoring_mac(contend):\n"
            "    mac = [None]\n"
            "\n"
            "    @lru_cache(maxsize=1)\n"
            "    def memo(*key):\n"
            "        return contend(key[0], mac[0], *key[1:])\n"
            "\n"
            "    def memoized(*key):\n"
            "        mac[0] = key[1]\n"
            "        return memo(*key[:1] + key[2:])\n"
            "\n"
            "    memoized.__wrapped__, memoized.cache_clear, memoized.cache_info = (\n"
            "        contend, memo.cache_clear, memo.cache_info)\n"
            "    return memoized\n"
            "\n"
            "\n"
            "@_memo_ignoring_mac\n"
            "def _contend("
        ),
        tests=(
            "tests/test_macsim.py::TestContentionMemo::test_every_mac_field_keys_the_pass",
        ),
    ),
    Mutant(
        id="macsim-engage-test-admits-window-end",
        file=MACSIM,
        old="e * mac.slot_duration_us < mac.success_duration_us",
        new="e * mac.slot_duration_us <= mac.success_duration_us",
        tests=(
            "tests/test_macsim.py::TestContentionMemo::test_engagement_follows_the_duration_rule",
        ),
    ),
    Mutant(
        id="macsim-wins-in-barged-windows",
        file=MACSIM,
        old="                barged = bc.count(0) > 1\n",
        new="                barged = bc.count(0) > 1\n                wins[tx][k] += barged\n",
        tests=(
            "tests/test_macsim.py::TestSpectrumAccounting::"
            "test_dense_ring_with_aborts_barges_and_reevaluation",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    Mutant(
        id="macsim-engaged-primary-credited-full-slot",
        file=MACSIM,
        old="                    p_sum[i] += n * p_total\n",
        new="                    p_sum[i] += n * full[i][k]\n",
        tests=(
            "tests/test_macsim.py::TestSpectrumAccounting::test_ss_on_with_engagements",
            "tests/test_macsim.py::TestSSReplayOracle::"
            "test_ss_on_run_equals_replay_of_ss_off_run",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_run_invariants",
        ),
    ),
    # the event records
    Mutant(
        id="macsim-tx-start-bc-dc-swapped",
        file=MACSIM,
        old="ROLE_PRIMARY, stage[i], bc[i], dc[i], None)))",
        new="ROLE_PRIMARY, stage[i], dc[i], bc[i], None)))",
        tests=(
            "tests/test_macsim.py::TestEngineDigest::test_digest",
        ),
    ),
    # the event-log renderer: one stamp per instant, one tail per distinct
    # tail, zero fractions rendered on every row
    Mutant(
        id="macsim-event-tail-key-without-fraction",
        file=MACSIM,
        old="        key = e[1:]\n",
        new="        key = e[1:7]\n",
        tests=(
            "tests/test_macsim.py::TestEventLog::test_matches_per_field_oracle",
            "tests/test_macsim.py::TestEventLog::test_rows_sharing_a_tail_match_the_oracle",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_event_log_matches_per_field_oracle",
        ),
    ),
    Mutant(
        id="macsim-event-tail-key-without-event",
        file=MACSIM,
        old="        key = e[1:]\n",
        new="        key = e[2:]\n",
        tests=(
            "tests/test_macsim.py::TestEventLog::test_matches_per_field_oracle",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_event_log_matches_per_field_oracle",
        ),
    ),
    Mutant(
        id="macsim-event-node-column-from-receiver",
        file=MACSIM,
        old='f",{event},{tx},{tx},{rx},',
        new='f",{event},{rx},{tx},{rx},',
        tests=(
            "tests/test_macsim.py::TestEventLog::test_matches_per_field_oracle",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_event_log_matches_per_field_oracle",
        ),
    ),
    Mutant(
        # the first zero's sign then renders on every later row of its tail
        id="macsim-event-zero-fraction-tail-stored",
        file=MACSIM,
        old="            if sf != 0:\n",
        new="            if True:\n",
        tests=(
            "tests/test_macsim.py::TestEventLog::test_rows_sharing_a_tail_match_the_oracle",
        ),
    ),
    Mutant(
        id="macsim-event-stamp-set-once",
        file=MACSIM,
        old="        if t is not last:\n",
        new="        if last is None:\n",
        tests=(
            "tests/test_macsim.py::TestEventLog::test_matches_per_field_oracle",
            "tests/test_macsim.py::TestEventLog::test_rows_sharing_a_tail_match_the_oracle",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_event_log_matches_per_field_oracle",
        ),
    ),
    Mutant(
        # -0.0 == 0.0, so a -0.0 instant after a 0.0 one keeps the stamp 0.0
        id="macsim-event-stamp-by-equality",
        file=MACSIM,
        old="        if t is not last:\n",
        new="        if t != last:\n",
        tests=(
            "tests/test_macsim.py::TestEventLog::test_matches_per_field_oracle",
        ),
    ),
    # faults first checked by hand when the one-step idle run and the
    # bit-plane build_decision_table were written
    Mutant(
        id="macsim-idle-run-no-stop-inside",
        file=MACSIM,
        old=(
            "                idle_us += slot_us\n"
            "                if t >= duration_us:\n"
            "                    break\n"
        ),
        new="                idle_us += slot_us\n",
        tests=(
            "tests/test_macsim.py::TestIdleRunDigest::test_digest",
        ),
    ),
    Mutant(
        id="macsim-idle-run-no-stop-after",
        file=MACSIM,
        old=(
            "                bc[i] -= m\n"
            "            if t >= duration_us:\n"
            "                break\n"
        ),
        new="                bc[i] -= m\n",
        tests=(
            "tests/test_macsim.py::TestIdleRunDigest::test_digest",
        ),
    ),
    Mutant(
        id="macsim-idle-run-one-slot-short",
        file=MACSIM,
        old="for _ in range(m):",
        new="for _ in range(m - 1):",
        tests=(
            "tests/test_macsim.py::TestIdleRunDigest::test_digest",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
        ),
    ),
    # run_simulation reads its flows once, into node order, and checks the
    # flows it read
    Mutant(
        id="macsim-flows-checked-after-reading",
        file=MACSIM,
        old="    for flow in link:\n        if flow not in links:\n",
        new="    for flow in flows:\n        if flow not in links:\n",
        tests=(
            "tests/test_macsim.py::TestBasicContract::test_flow_validation",
        ),
    ),
    # the engine's backoff draws: rng.below, the masked rejection of
    # SplitMix64.randbelow over the run's word stream
    Mutant(
        id="macsim-draw-cw-1-takes-a-word",
        file=RNG,
        old="    if n == 1:\n        return repeat(0)\n",
        new="",
        tests=(
            "tests/test_rng.py::test_masked_rejection_over_words_is_randbelow",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_backoff_draws_replay",
        ),
    ),
    Mutant(
        id="macsim-draw-mask-from-cw-bit-length",
        file=RNG,
        old="    mask = (1 << (n - 1).bit_length()) - 1\n    draws =",
        new="    mask = (1 << n.bit_length()) - 1\n    draws =",
        tests=(
            "tests/test_rng.py::test_masked_rejection_over_words_is_randbelow",
            "tests/test_macsim.py::TestGoldenTrace::test_first_ten_events_match_hand_trace",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim.py::TestIdleRunDigest::test_digest",
            "tests/test_macsim_property.py::test_backoff_draws_replay",
        ),
    ),
    Mutant(
        # only a CW that is not a power of two rejects words, so among the
        # engine's tests only the (1, 3, 5, 7) schedule shows it
        id="macsim-draw-rejection-admits-cw",
        file=RNG,
        old="filter(n.__gt__, draws)",
        new="filter(n.__ge__, draws)",
        tests=(
            "tests/test_rng.py::test_masked_rejection_over_words_is_randbelow",
            "tests/test_rng.py::test_below_iterators_share_one_stream",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_backoff_draws_replay",
        ),
    ),
    Mutant(
        id="macsim-draw-power-of-two-case-for-every-cw",
        file=RNG,
        old="return draws if n > mask else filter(n.__gt__, draws)",
        new="return draws",
        tests=(
            "tests/test_rng.py::test_masked_rejection_over_words_is_randbelow",
            "tests/test_rng.py::test_below_iterators_share_one_stream",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
            "tests/test_macsim_property.py::test_backoff_draws_replay",
        ),
    ),
    Mutant(
        # ~Q then reads a Q of 16 or more as Q - 16
        id="sharing-beta-carry-dropped",
        file=SHARING,
        old="[(q_b | carry) ^ _ALL for q_b in q]",
        new="[q_b ^ _ALL for q_b in q]",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_primary_at_ten_past_beta_six_has_no_candidate",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        id="sharing-carry-chain-strict-compare",
        file=SHARING,
        old="c = s0 | nq0\n",
        new="c = s0 & nq0\n",
        tests=(
            "tests/test_sharing.py::TestDecisionTable::test_matches_brute_force_enumeration",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_all_eleven_levels_match_brute_force",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        id="sharing-r0-from-complement",
        file=SHARING,
        old="r0 = s0 ^ q0",
        new="r0 = s0 ^ nq0",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_difference_of_ten_weighs_eight_in_plane_3",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        id="sharing-r2-after-carry-update",
        file=SHARING,
        old="                r2 = x ^ c\n                c = s2 & nq2 | c & x\n",
        new="                c = s2 & nq2 | c & x\n                r2 = x ^ c\n",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_all_eleven_levels_match_brute_force",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        id="sharing-gain-beta-term-dropped",
        file=SHARING,
        old="                    + beta * size\n",
        new="",
        tests=(
            "tests/test_sharing.py::TestDecisionTable::test_matches_brute_force_enumeration",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_difference_of_ten_weighs_eight_in_plane_3",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        # the buckets then test R against d's bits, not d - beta's
        id="sharing-bucket-pattern-from-d",
        file=SHARING,
        old="(r + beta, r & 1, r >> 1 & 1, r >> 2 & 1, r >> 3)",
        new=(
            "(r + beta, (r + beta) & 1, (r + beta) >> 1 & 1, (r + beta) >> 2 & 1,"
            " (r + beta) >> 3)"
        ),
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_difference_of_ten_weighs_eight_in_plane_3",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    # the deferred splits of over-cap candidates behind their bound
    Mutant(
        id="sharing-bound-ties-not-split",
        file=SHARING,
        old="if -neg_bound < floor:",
        new="if -neg_bound <= floor:",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::test_tie_at_the_bound_is_split",
        ),
    ),
    Mutant(
        id="sharing-bound-one-beta-too-tight",
        file=SHARING,
        old="over = size - cap\n",
        new="over = size - cap + 1\n",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::test_tie_at_the_bound_is_split",
        ),
    ),
    Mutant(
        # the floor is then the rank-1 gain: the loop's skips and the
        # deferred bounds are held against it
        id="sharing-bound-against-rank-1-gain",
        file=SHARING,
        old="return -scored[-1][0] if",
        new="return -scored[0][0] if",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_eight_nodes_match_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_equal_gains_keep_the_earliest_secondaries",
        ),
    ),
    Mutant(
        id="sharing-bound-never-prunes",
        file=SHARING,
        old="if -neg_bound < floor:",
        new="if -neg_bound < 0:",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_capped_table_splits_behind_the_bound",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_bounded_ranking_splits_no_more",
        ),
    ),
    # the bounded ranking: at most top_m entries and the floor they set
    Mutant(
        id="sharing-rank-pops-the-best",
        file=SHARING,
        old="        scored.pop()\n",
        new="        scored.pop(0)\n",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_eight_nodes_match_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_equal_gains_keep_the_earliest_secondaries",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_capped_gain_tying_the_floor_at_beta_zero",
        ),
    ),
    Mutant(
        # the one entry ranked so far then sets the floor, and a later
        # candidate below it is skipped while there is room for it
        id="sharing-floor-before-top-m-ranked",
        file=SHARING,
        old="if len(scored) == top_m else 0",
        new="if scored else 0",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_eight_nodes_match_brute_force",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_top_m_above_the_candidate_count",
        ),
    ),
    Mutant(
        # a floor of 0 then admits a candidate of gain 0 (beta 0 and a
        # secondary that only equals the primary), which the allocation's
        # check refuses; at a positive floor the tie would lose anyway
        id="sharing-zero-gain-admitted-at-floor-0",
        file=SHARING,
        old="if g <= floor:",
        new="if g < floor:",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
        ),
    ),
    Mutant(
        id="sharing-winner-mask-uncapped",
        file=SHARING,
        old="return g + d * room, whole, bucket, room",
        new="return g + d * room, eligible, 0, 0",
        tests=(
            "tests/test_sharing.py::TestDecisionTable::test_share_cap_truncates_keeping_best",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_eight_nodes_match_brute_force",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        id="sharing-split-counts-cut-bucket-whole",
        file=SHARING,
        old="g + d * room,",
        new="g + d * size,",
        tests=(
            "tests/test_sharing.py::TestDecisionTable::test_share_cap_truncates_keeping_best",
            "tests/test_sharing.py::TestDecisionTableOracle::test_tie_at_the_bound_is_split",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_eight_nodes_match_brute_force",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        # the same tables, but every split cuts its last bucket, retained or not
        id="sharing-split-cuts-eagerly",
        file=SHARING,
        old="return g + d * room, whole, bucket, room",
        new="return g + d * room, whole | _lowest_bits(bucket, room), 0, 0",
        tests=(
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_capped_table_splits_behind_the_bound",
        ),
    ),
    Mutant(
        # a cut winner's mask then holds its cut bucket's share alone
        id="sharing-split-whole-never-accumulated",
        file=SHARING,
        old="        whole |= bucket\n",
        new="",
        tests=(
            "tests/test_sharing.py::TestDecisionTable::test_share_cap_truncates_keeping_best",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_eight_nodes_match_brute_force",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
        ),
    ),
    Mutant(
        id="sharing-shared-total-plane-weight",
        file=SHARING,
        old="+ 4 * (p2 & shared).bit_count()",
        new="+ 2 * (p2 & shared).bit_count()",
        tests=(
            "tests/test_sharing_property.py::test_shared_total_equals_index_oracle",
            "tests/test_macsim.py::TestSpectrumAccounting::test_ss_on_with_engagements",
            "tests/test_macsim.py::TestEngineDigest::test_digest",
        ),
    ),
    # the decision-table CSV's byte-table render
    Mutant(
        id="sharing-csv-mask-bytes-big-endian",
        file=SHARING,
        old='.to_bytes(hi - lo, "little")',
        new='.to_bytes(hi - lo, "big")',
        tests=(
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_mask",
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_masks_in_one_table",
            "tests/test_sharing.py::TestDecisionTableCsv::test_eight_node_tables",
        ),
    ),
    Mutant(
        id="sharing-csv-mask-bytes-floor",
        file=SHARING,
        old="_MASK_BYTES = -(-SUBCARRIER_COUNT // 8)",
        new="_MASK_BYTES = SUBCARRIER_COUNT // 8",
        tests=(
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_mask",
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_masks_in_one_table",
            "tests/test_sharing.py::TestDecisionTableCsv::test_eight_node_tables",
        ),
    ),
    Mutant(
        id="sharing-csv-range-drops-top-byte",
        file=SHARING,
        old="hi = (shared.bit_length() + 7) >> 3",
        new="hi = shared.bit_length() >> 3",
        tests=(
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_mask",
            "tests/test_sharing.py::TestDecisionTableCsv::test_eight_node_tables",
        ),
    ),
    Mutant(
        id="sharing-csv-range-starts-past-lowest-bit",
        file=SHARING,
        old="lo = ((shared & -shared).bit_length() - 1) >> 3",
        new="lo = (shared & -shared).bit_length() >> 3",
        tests=(
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_mask",
            "tests/test_sharing.py::TestDecisionTableCsv::test_eight_node_tables",
        ),
    ),
    # the one _make of every checked tuple, through which _replace goes too
    Mutant(
        id="checked-make-unchecked",
        file=TONEMAP,
        old="    def _make(cls, iterable):\n        return cls(*iterable)\n",
        new="    def _make(cls, iterable):\n        return tuple.__new__(cls, iterable)\n",
        tests=(
            "tests/test_sharing.py::TestAllocationTuple::"
            "test_make_and_replace_check_their_fields",
            "tests/test_tonemap.py::TestTypes::test_make_and_replace_reject_loops",
            "tests/test_types.py::test_construction_make_and_replace_run_every_check",
            "tests/test_types.py::test_make_and_replace_normalise_as_construction",
        ),
    ),
    # the SSAllocation checks in __new__
    Mutant(
        id="sharing-allocation-rx-overlap-unchecked",
        file=SHARING,
        old="if secondary.tx in primary or secondary.rx in primary:",
        new="if secondary.tx in primary:",
        tests=(
            "tests/test_sharing.py::TestAllocationTuple::test_overlap_message",
            "tests/test_sharing.py::TestAllocationTuple::"
            "test_make_and_replace_check_their_fields",
        ),
    ),
    Mutant(
        id="sharing-allocation-mask-bound-exclusive",
        file=SHARING,
        old="if not 0 < shared <= _ALL:",
        new="if not 0 < shared < _ALL:",
        tests=(
            "tests/test_sharing.py::TestAllocationTuple::test_mask_inside_917_bits_accepted",
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_mask",
        ),
    ),
    Mutant(
        # a bool or float then reaches the decision-table CSV
        id="sharing-allocation-int-types-unchecked",
        file=SHARING,
        old="                if not is_integer(value):\n",
        new="                if False:\n",
        tests=("tests/test_sharing.py::TestAllocationTuple::test_integer_fields_must_be_ints",),
    ),
    Mutant(
        # slot 0 then reads the last slot's planes through planes[-1]
        id="sharing-allocation-slot-unchecked",
        file=SHARING,
        old=(
            "        if slot < 1:\n"
            "            raise ValueError(\"slot is 1-based\")\n"
        ),
        new="",
        tests=("tests/test_sharing.py::TestAllocationTuple::test_slot_below_one_rejected",),
    ),
    Mutant(
        id="sharing-csv-nibble-halves-swapped",
        file=SHARING,
        old="[lo + hi for hi in high for lo in low]",
        new="[lo + hi for lo in low for hi in high]",
        tests=(
            "tests/test_sharing.py::TestDecisionTableCsv::test_hand_built_mask",
            "tests/test_sharing.py::TestDecisionTableCsv::test_eight_node_tables",
            "tests/test_sharing.py::TestDecisionTable::test_csv_shape",
        ),
    ),
    # the PLCTM row reader, its slot table and refusal diagnosis, the Tonemap
    # checks and views and the PHY rate
    Mutant(
        id="traceio-colon-guard-dropped",
        file=TRACEIO,
        old='if b":" in row or b"#" in row:',
        new='if b"#" in row:',
        tests=(
            "tests/test_traceio_property.py::test_parser_agrees_with_canonical_oracle",
        ),
    ),
    Mutant(
        id="traceio-marker-guard-dropped",
        file=TRACEIO,
        old='if b":" in row or b"#" in row:',
        new='if b":" in row:',
        tests=(
            "tests/test_traceio_property.py::test_parser_agrees_with_canonical_oracle",
        ),
    ),
    Mutant(
        id="traceio-length-gate-one-late",
        file=TRACEIO,
        old="    if len(row) > _ROW_LENGTH:\n",
        new="    if len(row) > _ROW_LENGTH + 1:\n",
        tests=(
            # the row with one 10 is then refused
            "tests/test_traceio.py::TestParse::test_writer_rows_round_trip",
        ),
    ),
    Mutant(
        id="traceio-row-digits-unchecked",
        file=TRACEIO,
        old="        if 255 not in values:\n",
        new="        if True:\n",
        tests=(
            "tests/test_traceio_property.py::test_parser_agrees_with_canonical_oracle",
        ),
    ),
    Mutant(
        id="traceio-row-commas-unchecked",
        file=TRACEIO,
        old="if len(row) == _ROW_LENGTH and row[1::2] == _ROW_COMMAS:",
        new="if len(row) == _ROW_LENGTH:",
        tests=(
            "tests/test_traceio_property.py::test_parser_agrees_with_canonical_oracle",
        ),
    ),
    Mutant(
        id="traceio-writer-ten-test-inverted",
        file=TRACEIO,
        old="if MAX_MODULATION not in slot:",
        new="if MAX_MODULATION in slot:",
        tests=(
            "tests/test_traceio.py::TestParse::test_writer_rows_round_trip",
            "tests/test_traceio.py::test_generated_trace_bytes_pinned",
            "tests/test_traceio_property.py::test_round_trip_on_arbitrary_valid_deployments",
        ),
    ),
    Mutant(
        id="traceio-writer-markers-kept",
        file=TRACEIO,
        old='values = wide.translate(None, b"#").decode("ascii")',
        new='values = wide.decode("ascii")',
        tests=(
            "tests/test_traceio.py::TestParse::test_writer_rows_round_trip",
            "tests/test_traceio.py::test_generated_trace_bytes_pinned",
            "tests/test_traceio_property.py::test_round_trip_on_arbitrary_valid_deployments",
        ),
    ),
    Mutant(
        id="traceio-link-whitespace-check-dropped",
        file=TRACEIO,
        old="if values is None and len(line.split(None, 5)) != 5:",
        new="if len(parts) != 5:",
        tests=(
            "tests/test_traceio.py::TestLinkLineLayout::"
            "test_whitespace_in_the_values_is_a_sixth_field",
        ),
    ),
    Mutant(
        # slot 0 then reads as the last slot, and "slots 0" as no slots
        id="traceio-slot-table-from-zero",
        file=TRACEIO,
        old="_SLOT_NUMBERS = {str(k): k for k in range(1, MAX_SLOT_COUNT + 1)}",
        new="_SLOT_NUMBERS = {str(k): k for k in range(MAX_SLOT_COUNT + 1)}",
        tests=(
            "tests/test_traceio.py::TestParse::test_header_counts_only_in_the_writers_form",
            "tests/test_traceio.py::TestLinkLineLayout::"
            "test_field_count_and_trailing_comma_errors",
        ),
    ),
    Mutant(
        # a slot above the header's count then indexes past the link's rows
        id="traceio-slot-checked-against-max",
        file=TRACEIO,
        old="if slot is None or slot > slot_count:",
        new="if slot is None or slot > MAX_SLOT_COUNT:",
        tests=("tests/test_traceio.py::TestParse::test_slot_out_of_header_range",),
    ),
    Mutant(
        # a field of valid tokens but the wrong count then has no bad token
        # to name
        id="traceio-diagnosis-count-unchecked",
        file=TRACEIO,
        old="    if len(tokens) != SUBCARRIER_COUNT:\n",
        new="    if False:\n",
        tests=(
            "tests/test_traceio.py::TestParse::test_wrong_value_count_names_line",
            "tests/test_traceio_property.py::test_parser_agrees_with_canonical_oracle",
        ),
    ),
    Mutant(
        id="traceio-noise-batch-restarted-per-slot",
        file=TRACEIO,
        old=(
            "    pos = 0\n"
            "    for _ in range(slot_count):\n"
            "        parts = []\n"
        ),
        new=(
            "    for _ in range(slot_count):\n"
            "        pos = 0\n"
            "        parts = []\n"
        ),
        tests=(
            "tests/test_traceio.py::test_generated_trace_bytes_pinned",
            "tests/test_traceio_property.py::test_generator_matches_one_draw_per_entry",
        ),
    ),
    Mutant(
        # True then builds a one-slot deployment
        id="traceio-slot-count-integer-unchecked",
        file=TRACEIO,
        old='(("n_nodes", n_nodes), ("slot_count", slot_count))',
        new='(("n_nodes", n_nodes),)',
        tests=("tests/test_traceio.py::TestGenerator::test_non_integer_count_rejected",),
    ),
    Mutant(
        id="tonemap-levels-range-check-dropped",
        file=TONEMAP,
        old="len(slot) != SUBCARRIER_COUNT or slot.translate(None, _LEVELS)",
        new="len(slot) != SUBCARRIER_COUNT",
        tests=(
            "tests/test_tonemap.py::TestValidate::test_modulation_out_of_range",
            "tests/test_tonemap_property.py::test_constructor_names_the_bad_value",
        ),
    ),
    Mutant(
        id="tonemap-asymmetry-nibble-shift-3",
        file=TONEMAP,
        old='(int.from_bytes(slot_ab, "little") << 4)',
        new='(int.from_bytes(slot_ab, "little") << 3)',
        tests=(
            "tests/test_tonemap.py::TestKernelPins::test_asymmetry_equals_brute_force",
            "tests/test_tonemap.py::TestAsymmetry::test_metric_properties_on_random_maps",
        ),
    ),
    Mutant(
        id="tonemap-planes-from-unreversed-slot",
        file=TONEMAP,
        old="raw = vec[::-1]",
        new="raw = vec",
        tests=(
            "tests/test_tonemap.py::TestViews::test_planes_rebuild_each_slot",
            "tests/test_sharing.py::TestDecisionTableOracle::"
            "test_every_level_pair_matches_brute_force",
            "tests/test_sharing_property.py::test_table_matches_brute_force",
            "tests/test_sharing_property.py::test_shared_total_equals_index_oracle",
        ),
    ),
    Mutant(
        id="tonemap-phy-rate-next-slot-total",
        file=TONEMAP,
        old="t.totals[slot_index - 1]",
        new="t.totals[slot_index % t.slot_count]",
        tests=(
            "tests/test_tonemap.py::TestPhyRate::test_matches_rational_oracle_on_random_maps",
            "tests/test_tonemap.py::TestKernelPins::test_rates_equal_the_fraction_expression",
            "tests/test_acceptance.py::test_criterion_1_formula_oracles",
        ),
    ),
    Mutant(
        id="tonemap-byte-sum-adler-one-kept",
        file=TONEMAP,
        old="return (adler32(data) & 0xFFFF) - 1",
        new="return adler32(data) & 0xFFFF",
        tests=(
            "tests/test_tonemap.py::TestViews::test_totals_are_slot_sums",
            "tests/test_tonemap.py::TestAsymmetry::test_identical_maps",
            "tests/test_tonemap.py::TestKernelPins::test_asymmetry_equals_brute_force",
            "tests/test_tonemap.py::TestPhyRate::test_matches_rational_oracle_on_random_maps",
        ),
    ),
    Mutant(
        # a field stays read-only through its descriptor, so only a new or
        # cached attribute shows the fault
        id="tonemap-setattr-let-through",
        file=TONEMAP,
        old="        raise AttributeError(f\"cannot set {name!r}: a Tonemap is immutable\")\n",
        new="        object.__setattr__(self, name, value)\n",
        tests=(
            "tests/test_types.py::test_immutable",
            "tests/test_types.py::test_tonemap_caches_its_views_and_stays_immutable",
        ),
    ),
    Mutant(
        # Fraction(inf) then raises OverflowError, Fraction(nan) ValueError
        # with its own message
        id="tonemap-fec-rate-converted-before-membership",
        file=TONEMAP,
        old="        if self.fec_rate not in FEC_RATES:\n",
        new="        if Fraction(self.fec_rate) not in FEC_RATES:\n",
        tests=("tests/test_types.py::test_construction_make_and_replace_run_every_check",),
    ),
    # canonical order: a deployment's links and a table's entries iterate
    # sorted, and the unordered node pairs are the links with tx < rx
    Mutant(
        id="traceio-deployment-keeps-insertion-order",
        file=TRACEIO,
        old='links = in_key_order(links, "node ids")',
        new="links = dict(links)",
        tests=(
            "tests/test_traceio.py::TestSerialize::"
            "test_links_iterate_in_node_order_however_inserted",
            "tests/test_metrics.py::TestAsymmetryDistribution::"
            "test_pairs_in_node_order_however_inserted",
        ),
    ),
    Mutant(
        id="traceio-deployment-keeps-metadata-insertion-order",
        file=TRACEIO,
        old='in_key_order(metadata or {}, "meta keys")',
        new="dict(metadata or {})",
        tests=(
            "tests/test_traceio.py::TestSerialize::"
            "test_meta_keys_iterate_in_key_order_however_inserted",
            "tests/test_traceio.py::test_generated_trace_bytes_pinned",
            "tests/test_cli.py::TestGenerate::"
            "test_summary_in_key_order_however_metadata_is_inserted",
        ),
    ),
    Mutant(
        id="sharing-table-keeps-insertion-order",
        file=SHARING,
        old='in_key_order(entries, "entry keys")',
        new="dict(entries)",
        tests=(
            "tests/test_sharing.py::TestDecisionTableCsv::"
            "test_entries_iterate_in_key_order_however_inserted",
        ),
    ),
    Mutant(
        id="metrics-pair-filter-reversed",
        file=METRICS,
        old="        if link.tx < link.rx:\n",
        new="        if link.tx > link.rx:\n",
        tests=(
            "tests/test_metrics.py::TestAsymmetryDistribution::"
            "test_pairs_in_node_order_however_inserted",
        ),
    ),
    Mutant(
        id="traceio-generator-pair-filter-reversed",
        file=TRACEIO,
        old="pairs = [link for link in ordered_links if link.tx < link.rx]",
        new="pairs = [link for link in ordered_links if link.tx > link.rx]",
        tests=(
            "tests/test_traceio.py::test_generated_trace_bytes_pinned",
        ),
    ),
    # the SS-on over SS-off comparison and the route planner's figures
    Mutant(
        id="metrics-fsse-delta-self-subtracted",
        file=METRICS,
        old="fsse_delta=fair_ss.fsse - fair_base.fsse,",
        new="fsse_delta=fair_ss.fsse - fair_ss.fsse,",
        tests=(
            "tests/test_metrics.py::TestCompareRuns::test_gains_and_deltas_from_known_tallies",
        ),
    ),
    Mutant(
        # a second flow from one station then overwrites the first's figure
        id="metrics-one-flow-per-station-unchecked",
        file=METRICS,
        old="    if len(per_node) != len(report.tallies):\n",
        new="    if False:\n",
        tests=(
            "tests/test_metrics.py::TestFairnessReport::test_two_flows_from_one_station_rejected",
        ),
    ),
    Mutant(
        id="metrics-link-throughput-from-receiver",
        file=METRICS,
        old=(
            "        thr_base = fair_base.per_node_throughput[link.tx]\n"
            "        thr_ss = fair_ss.per_node_throughput[link.tx]\n"
        ),
        new=(
            "        thr_base = fair_base.per_node_throughput[link.rx]\n"
            "        thr_ss = fair_ss.per_node_throughput[link.rx]\n"
        ),
        tests=(
            "tests/test_metrics.py::TestCompareRuns::test_per_link_hand_arithmetic",
            "tests/test_metrics.py::TestCompareRuns::test_gains_and_deltas_from_known_tallies",
            "tests/test_metrics.py::TestCompareRuns::test_zero_base_links",
        ),
    ),
    Mutant(
        id="metrics-pct-gain-zero-base-reads-zero",
        file=METRICS,
        old="return 0.0 if new == 0 else math.inf",
        new="return 0.0",
        tests=(
            "tests/test_metrics.py::TestCompareRuns::test_zero_base_links",
        ),
    ),
    Mutant(
        id="routing-csv-estimate-truncated",
        file=ROUTING,
        old="{round(route.throughput_bps)}",
        new="{int(route.throughput_bps)}",
        tests=(
            "tests/test_routing.py::TestRouteCsv::test_estimate_rounds_to_nearest",
        ),
    ),
    Mutant(
        id="routing-threshold-edge-dropped",
        file=ROUTING,
        old="if rate >= min_rate:",
        new="if rate > min_rate:",
        tests=(
            "tests/test_routing.py::TestBuildGraph::test_edge_at_exactly_the_threshold_kept",
        ),
    ),
    Mutant(
        # NaN then prunes every link, and the CLI reports it as unreachable
        id="routing-min-rate-nan-accepted",
        file=ROUTING,
        old="if not is_number(min_rate) or math.isnan(min_rate):",
        new="if not is_number(min_rate):",
        tests=(
            "tests/test_routing.py::TestBuildGraph::test_threshold_must_be_a_number_not_nan",
            "tests/test_cli.py::TestRoute::test_nan_min_rate_invalid_input",
        ),
    ),
    Mutant(
        # an infinite rate then costs its hop 0, and the estimate divides by it
        id="routing-graph-infinite-rate-accepted",
        file=ROUTING,
        old="rate >= 0 and math.isfinite(rate)",
        new="rate >= 0",
        tests=("tests/test_routing.py::TestBestRoute::test_rates_must_be_finite_numbers",),
    ),
    # the CLI's results CSV, its event-log output and its scenario and
    # throughput checks
    Mutant(
        id="cli-sf-primary-in-sf-secondary-column",
        file=CLI,
        old="{float(t.sf_secondary)!r}",
        new="{float(t.sf_primary)!r}",
        tests=(
            "tests/test_cli.py::TestSimulate::test_results_csv_is_the_run_tallies",
        ),
    ),
    Mutant(
        # the event log then goes to stdout when no --events-out is given,
        # and is not written when one is
        id="cli-events-collected-without-path",
        file=CLI,
        old="collect = args.events_out is not None",
        new="collect = args.events_out is None",
        tests=(
            "tests/test_cli.py::TestSimulate::test_event_log_written",
            "tests/test_cli.py::TestSimulate::test_events_flag_usage_error",
        ),
    ),
    Mutant(
        # --dur and --events are then read as --duration-us and --events-out
        id="cli-flag-abbreviations-allowed",
        file=CLI,
        old="p = sub.add_parser(name, help=help, allow_abbrev=False)",
        new="p = sub.add_parser(name, help=help)",
        tests=(
            "tests/test_cli.py::TestSimulate::test_events_flag_usage_error",
            "tests/test_cli.py::TestSimulate::test_abbreviated_flag_rejected",
        ),
    ),
    Mutant(
        # MacParams then rejects the period: exit 2 in place of the usage exit
        id="cli-reeval-period-check-dropped",
        file=CLI,
        old=(
            "    if args.reeval_period_us is not None and args.reeval_period_us <= 0:\n"
            "        raise _UsageError(\"--reeval-period-us must be positive\")\n"
        ),
        new="",
        tests=(
            "tests/test_cli.py::TestSimulate::test_non_positive_reeval_period_usage_error",
        ),
    ),
    Mutant(
        id="cli-sweep-ss-throughput-unchecked",
        file=CLI,
        old="        _require_throughput(ss, args.duration_us)\n",
        new="",
        tests=(
            "tests/test_cli.py::TestSweep::test_ss_run_without_throughput_runtime_exit",
        ),
    ),
    # main writes every output a command returns, each to its own path, all
    # or none, and refuses two output flags that name one file
    Mutant(
        id="cli-main-writes-first-output-only",
        file=CLI,
        old="_write(_COMMANDS[args.command](args))",
        new="_write(_COMMANDS[args.command](args)[:1])",
        tests=(
            "tests/test_cli.py::TestGenerate::test_output_parses_and_summarizes",
            "tests/test_cli.py::TestAnalyze::test_symmetric_trace_zero_asymmetry",
        ),
    ),
    Mutant(
        id="cli-main-writes-every-output-to-stdout",
        file=CLI,
        old="    temps = []  # (output, its temporary file)\n",
        new=(
            "    temps = []  # (output, its temporary file)\n"
            "    outputs = [(None, text) for _, text in outputs]\n"
        ),
        tests=(
            "tests/test_cli.py::TestGenerate::test_same_flags_identical_files",
            "tests/test_cli.py::TestAnalyze::test_full_modulation_rate_column",
            "tests/test_cli.py::TestSimulate::test_deterministic_csvs",
        ),
    ),
    Mutant(
        id="cli-write-replaces-before-all-are-written",
        file=CLI,
        old=(
            "                    temps.append((path, temp))\n"
            "                    fh.write(text)\n"
        ),
        new=(
            "                    fh.write(text)\n"
            "                os.replace(temp, os.path.realpath(path))\n"
        ),
        tests=(
            "tests/test_cli.py::TestAnalyze::test_unwritable_output_writes_nothing",
        ),
    ),
    Mutant(
        id="cli-write-missing-output-written-in-place",
        file=CLI,
        old="            elif st is not None and not stat.S_ISREG(st.st_mode):\n",
        new="            elif st is None or not stat.S_ISREG(st.st_mode):\n",
        tests=(
            "tests/test_cli.py::TestAnalyze::test_unwritable_output_writes_nothing",
        ),
    ),
    Mutant(
        id="cli-write-replaces-every-output",
        file=CLI,
        old="            elif st is not None and not stat.S_ISREG(st.st_mode):\n",
        new="            elif False:\n",
        tests=(
            "tests/test_cli.py::TestAnalyze::test_fifo_output_receives_its_text",
        ),
    ),
    Mutant(
        id="cli-write-stdout-identity-skipped",
        file=CLI,
        old="and os.path.samestat(st, stdout)):",
        new="and False):",
        tests=(
            "tests/test_cli.py::test_output_naming_stdout_goes_to_stdout_in_turn",
        ),
    ),
    Mutant(
        id="cli-write-replaces-the-symlink",
        file=CLI,
        old="            os.replace(temp, os.path.realpath(path))\n",
        new="            os.replace(temp, path)\n",
        tests=(
            "tests/test_cli.py::TestAnalyze::test_symlinked_output_written_through",
        ),
    ),
    Mutant(
        id="cli-write-failure-is-an-input-error",
        file=CLI,
        old="raise _RuntimeFailure(f\"cannot write",
        new="raise ValueError(f\"cannot write",
        tests=(
            "tests/test_cli.py::TestAnalyze::test_unwritable_output_writes_nothing",
        ),
    ),
    Mutant(
        id="cli-output-paths-compared-unresolved",
        file=CLI,
        old="paths = [os.path.realpath(path) for",
        new="paths = [path for",
        tests=(
            "tests/test_cli.py::TestAnalyze::test_two_outputs_naming_one_file_usage_error",
        ),
    ),
    # the splitmix64 counter, word iterator and byte runs
    Mutant(
        id="rng-byte-run-walk-back-one-short",
        file=RNG,
        old=(
            "                used += 1\n"
            "                accepted = accepted[:need]\n"
        ),
        new="                accepted = accepted[:need]\n",
        tests=(
            "tests/test_rng.py::test_randbelow_many_is_successive_randbelow",
            "tests/test_rng.py::test_buffered_draws_follow_the_word_stream",
        ),
    ),
    Mutant(
        id="rng-next-u64-counter-not-stored",
        file=RNG,
        old="self._z = z = (self._z + _GAMMA) & _MASK64",
        new="z = (self._z + _GAMMA) & _MASK64",
        tests=(
            # not the randbelow tests: a draw that rejects the repeated word
            # would loop for ever
            "tests/test_rng.py::test_first_words_pinned",
            "tests/test_rng.py::test_words_are_successive_next_u64",
        ),
    ),
    Mutant(
        id="rng-words-batches-one-word-short",
        file=RNG,
        old="count(self._z, _WORDS_BATCH * _GAMMA)",
        new="count(self._z, (_WORDS_BATCH - 1) * _GAMMA)",
        tests=(
            "tests/test_rng.py::test_words_are_successive_next_u64",
            "tests/test_rng.py::test_words_start_where_the_stream_stands",
        ),
    ),
    Mutant(
        id="rng-mixed-lanes-truncated-one-lane-late",
        file=RNG,
        old="    if lanes < _BATCH:\n",
        new="    if lanes < _BATCH - 1:\n",
        tests=(
            "tests/test_rng.py::test_mixed_lanes_are_the_next_words",
        ),
    ),
    Mutant(
        id="rng-byte-run-end-state-not-stored",
        file=RNG,
        old="        self._z = z\n        return b\"\".join(chunks)\n",
        new="        return b\"\".join(chunks)\n",
        tests=(
            "tests/test_rng.py::test_randbelow_many_is_successive_randbelow",
            "tests/test_rng.py::test_buffered_draws_follow_the_word_stream",
        ),
    ),
)

EQUIVALENT = (
    Mutant(
        id="sharing-loop-bound-ties-deferred",
        file=SHARING,
        old="if bound > floor:",
        new="if bound >= floor:",
        reason=(
            "a bound equal to the loop's floor is deferred and split, but its "
            "capped gain is at most that floor, whose secondary came earlier "
            "and wins the tie, and later rankings only raise the floor"
        ),
    ),
    Mutant(
        id="traceio-length-gate-dropped",
        file=TRACEIO,
        old="    if len(row) > _ROW_LENGTH:\n",
        new="    if True:\n",
        reason=(
            "the replace only shortens a field: a shorter one stays too short, "
            "and one of exactly _ROW_LENGTH characters that holds a 10 fails "
            "the length check after it as it fails the comma check without it"
        ),
    ),
)
