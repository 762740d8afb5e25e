(* The metric lists.  [end_to_end] and [per_layer] print the same names,
   in the same order, for every workload (BENCHMARK.json lists them);
   a layer a workload does not exercise reads 0 there. *)

module A = Alloc_bench
module Stats = Remat.Stats

let m = Util.metric

type serve_layer = {
  hit_share : float;
  incremental_share : float;
  edit_fallbacks : float;
  evictions : float;
  snapshot_ms : float;
  incremental_ms : float;
  cold_ms : float;
  requests_per_wave : float;
  handle_batch_ms : float;
  protocol_parse_us : float;
  protocol_encode_us : float;
  p50_ms : float;
  p99_ms : float;
  rps_max : float;
  late_ms_p99 : float;
  sent : float;
  completed : float;
  failed : float;
}

let no_serve =
  {
    hit_share = 0.;
    incremental_share = 0.;
    edit_fallbacks = 0.;
    evictions = 0.;
    snapshot_ms = 0.;
    incremental_ms = 0.;
    cold_ms = 0.;
    requests_per_wave = 0.;
    handle_batch_ms = 0.;
    protocol_parse_us = 0.;
    protocol_encode_us = 0.;
    p50_ms = 0.;
    p99_ms = 0.;
    rps_max = 0.;
    late_ms_p99 = 0.;
    sent = 0.;
    completed = 0.;
    failed = 0.;
  }

let ratio a b = if b > 0. then a /. b else 0.

(* What a user of the allocator sees, on any workload.  Throughput and
   latency are given by the caller: allocate calls on kernels and large,
   served requests on serve; the spill cycles come from the briggs and
   ssa accumulators. *)
let end_to_end ~setup_s ~peak_mb ~kinstr_per_s ~alloc_ms ~ssa_alloc_ms
    ~verify_ms (b : A.acc) (s : A.acc) =
  [
    m "setup_s" "s" setup_s;
    m "alloc_kinstr_per_s" "kinstr/s" kinstr_per_s;
    m "alloc_ms_p50" "ms" (Util.median alloc_ms);
    m "ssa_alloc_ms_p50" "ms" (Util.median ssa_alloc_ms);
    m "verify_ms_p50" "ms" (Util.median verify_ms);
    m "spill_cycles" "cycles" (float_of_int (A.spill_cycles b));
    m "ssa_spill_cycles" "cycles" (float_of_int (A.spill_cycles s));
    m "peak_mem_mb" "MB" peak_mb;
  ]

(* Stats phase rows, per pass: self seconds, and the allocate wall time
   they leave unattributed (negative where rows nest). *)
let phase_metrics prefix (a : A.acc) =
  let wall = A.per_pass a a.A.alloc_s in
  let gap = wall -. A.per_pass a (A.phase_sum a) in
  List.map
    (fun p ->
      m
        (Printf.sprintf "%s.%s_s" prefix (A.phase_name p))
        "s"
        (A.per_pass a (Option.value ~default:0. (Hashtbl.find_opt a.A.phase_s p))))
    (A.phases a.A.family)
  @ [
      m (prefix ^ ".wall_s") "s" wall;
      m (prefix ^ ".unattributed_s") "s" gap;
      m (prefix ^ ".unattributed_share") "ratio" (ratio gap wall);
    ]

let counter_metrics (a : A.acc) =
  let c k = float_of_int (A.counter a k) in
  let pp x = A.per_pass a x in
  let n name x = m ("remat." ^ name) "count" (pp x) in
  [
    m "remat.minor_words" "words" (pp a.A.minor_words);
    m "remat.major_words" "words" (pp a.A.major_words);
    n "rounds" (float_of_int a.A.rounds);
    n "full_builds" (c Stats.Full_builds);
    n "liveness_runs" (c Stats.Liveness_runs);
    n "node_merges" (c Stats.Node_merges);
    n "build_pairs" (c Stats.Build_pairs);
    m "remat.build_dupe_ratio" "ratio"
      (ratio (c Stats.Build_dupes) (c Stats.Build_pairs));
    n "build_overlay" (c Stats.Build_overlay);
    m "remat.briggs_accept_ratio" "ratio"
      (ratio (c Stats.Briggs_tests -. c Stats.Briggs_denied) (c Stats.Briggs_tests));
    n "select_partner_hits" (c Stats.Select_partner_hits);
    n "select_lookahead_hits" (c Stats.Select_lookahead_hits);
    n "select_fallbacks" (c Stats.Select_fallbacks);
    n "spilled_memory" (float_of_int a.A.spilled_memory);
    n "spilled_remat" (float_of_int a.A.spilled_remat);
    n "coalesced_copies" (float_of_int a.A.coalesced_copies);
  ]

let sim_metrics prefix (a : A.acc) =
  List.map
    (fun cat ->
      m
        (Printf.sprintf "%s.%s_delta" prefix (Iloc.Instr.category_to_string cat))
        "count"
        (float_of_int (A.category_delta a cat)))
    A.categories

(* The verifier's work on briggs output, per pass. *)
let verify_metrics (a : A.acc) =
  [
    m "verify.ms" "ms" (1000. *. A.per_pass a a.A.verify_s);
    m "verify.us_per_instr" "us/instr"
      (ratio (1e6 *. a.A.verify_s) (float_of_int a.A.verify_instrs));
    m "verify.uses_checked" "count"
      (A.per_pass a (float_of_int a.A.uses_checked));
    m "verify.remats_checked" "count"
      (A.per_pass a (float_of_int a.A.remats_checked));
  ]

let iloc_metrics (i : Iloc_probe.t) =
  let n name v = m ("iloc." ^ name ^ "_ms") "ms" v in
  [
    n "parse" i.Iloc_probe.parse_ms;
    n "print" i.print_ms;
    n "validate" i.validate_ms;
    n "content_hash" i.content_hash_ms;
    n "split_edges" i.split_edges_ms;
    n "flat_encode" i.flat_encode_ms;
    n "flat_decode" i.flat_decode_ms;
  ]

let serve_metrics (s : serve_layer) =
  [
    m "serve.hit_share" "ratio" s.hit_share;
    m "serve.incremental_share" "ratio" s.incremental_share;
    m "serve.edit_fallbacks" "count" s.edit_fallbacks;
    m "serve.evictions" "count" s.evictions;
    m "remat.snapshot_ms" "ms" s.snapshot_ms;
    m "remat.incremental_ms" "ms" s.incremental_ms;
    m "remat.cold_ms" "ms" s.cold_ms;
    m "serve.requests_per_wave" "count" s.requests_per_wave;
    m "serve.handle_batch_ms" "ms" s.handle_batch_ms;
    m "serve.protocol_parse_us" "us" s.protocol_parse_us;
    m "serve.protocol_encode_us" "us" s.protocol_encode_us;
    m "serve.p50_ms" "ms" s.p50_ms;
    m "serve.p99_ms" "ms" s.p99_ms;
    m "serve.rps_max" "1/s" s.rps_max;
    m "loadgen.late_ms_p99" "ms" s.late_ms_p99;
    m "loadgen.sent" "count" s.sent;
    m "loadgen.completed" "count" s.completed;
    m "loadgen.failed" "count" s.failed;
  ]

let per_layer ~briggs ~ssa ~verifier ~iloc ~serve ~gc_minor ~gc_major
    ~overhead =
  phase_metrics "remat" briggs
  @ phase_metrics "ssa_alloc" ssa
  @ counter_metrics briggs
  @ sim_metrics "sim" briggs
  @ sim_metrics "ssa_sim" ssa
  @ verify_metrics verifier
  @ iloc_metrics iloc
  @ serve_metrics serve
  @ [
      m "gc.minor_words" "words" gc_minor;
      m "gc.major_collections" "count" gc_major;
      m "trace.overhead" "ratio" overhead;
    ]
