(* perfbench: the repository's benchmark.

     main.exe --workload kernels|large|serve --seed N --seconds S --trace 0|1

   kernels  all Suite.Kernels routines, optimized, allocated by briggs
            and ssa on the 16+16 machine, in passes (order shuffled by
            the seed);
   large    a fixed ~20k-instruction Fuzz.Gen high-pressure routine on
            the 8+8 Scale machine, in passes;
   serve    a seeded request stream over one framed connection to
            Serve.Server.serve_fds, drawn from a fixed universe of
            Fuzz.Gen.default routines and edits, under briggs and ssa.

   A first pass proves every allocation with Verify.Check and simulates
   it against the unallocated source.  On kernels and large it is not
   measured; measured passes follow, and each of their outputs must
   print as the proved one did.  On serve it is the cold oracle: every
   response is compared with its output.  A human-readable report goes
   first; the last line is one JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1).  The traced run
   also writes its spans as Chrome trace-event JSON. *)

module A = Alloc_bench
module S = Serve_bench

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage =
  "usage: main.exe --workload kernels|large|serve --seed N --seconds S \
   --trace 0|1\n\
  \       main.exe --check-calibration"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The large corpus: (generator seed, statement budget), the 20k input
   of bench scale.  The budget is Scale_bench.Scale.stmts_for
   ~target:20000 of the seed, fixed here so that set-up does not repeat
   the binary search (0.4 to 10 s a seed); --check-calibration
   recomputes it.  One routine, because with several routines of
   similar allocation time the median of a run's samples jumps between
   them. *)
let large_corpus = [ (42, 63) ]
let large_target = 20_000

let check_calibration () =
  let ok =
    List.for_all
      (fun (seed, stmts) ->
        let got = Scale_bench.Scale.stmts_for ~target:large_target seed in
        Printf.printf "seed %d: stmts_for %d, fixed %d\n%!" seed got stmts;
        got = stmts)
      large_corpus
  in
  exit (if ok then 0 else 1)

let kernels_setup () =
  Array.of_list
    (List.map
       (fun k ->
         A.make_item k.Suite.Kernels.name (Suite.Kernels.cfg_of ~optimize:true k))
       Suite.Kernels.all)

let large_setup () =
  Array.of_list
    (List.map
       (fun (seed, stmts) ->
         A.make_item
           (Printf.sprintf "fuzz_%d" seed)
           (Scale_bench.Scale.generate ~stmts seed))
       large_corpus)

(* Set-up runs this many times; setup_s is the median. *)
let setup_reps = 11

let repeated_setup f =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    let v, dt = Util.timed f in
    times := dt :: !times;
    last := Some v
  done;
  (Util.median !times, Option.get !last)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, float_of_int s.Gc.major_collections)

(* The full report: every end-to-end metric with its unit and
   sample count, including those that exist on one workload only. *)
let print_report ~workload ~e2e ~alloc_ms ~ssa_alloc_ms ~verify_ms ~serve =
  Util.print_table (workload ^ ": end-to-end") e2e;
  let n_alloc = List.length alloc_ms in
  Printf.printf "  samples: alloc_ms %d, ssa_alloc_ms %d, verify_ms %d\n"
    n_alloc (List.length ssa_alloc_ms) (List.length verify_ms);
  if n_alloc >= 100 then
    Printf.printf "  %-34s %16.6g ms (n=%d)\n" "alloc_ms_p90"
      (Util.percentile 0.9 alloc_ms)
      n_alloc
  else
    Printf.printf "  %-34s %16s (n=%d < 100)\n" "alloc_ms_p90" "n/a" n_alloc;
  Printf.printf "  %-34s %16.6g ratio (%d of %d operations)\n" "error_rate"
    (float_of_int Util.tally.failed
    /. float_of_int (max 1 Util.tally.attempted))
    Util.tally.failed Util.tally.attempted;
  match serve with
  | None ->
      List.iter
        (fun n -> Printf.printf "  %-34s %16s (serve only)\n" n "n/a")
        [ "serve_p50_ms"; "serve_p99_ms"; "serve_rps_max" ]
  | Some (l : Layers.serve_layer) ->
      Printf.printf
        "  (serve: alloc_kinstr_per_s, alloc_ms_p50 and ssa_alloc_ms_p50 are \
         served, at saturation)\n";
      Printf.printf "  %-34s %16.6g ms (n=%.0f)\n" "serve_p50_ms" l.p50_ms
        l.completed;
      Printf.printf "  %-34s %16.6g ms (n=%.0f)\n" "serve_p99_ms" l.p99_ms
        l.completed;
      Printf.printf "  %-34s %16.6g 1/s\n" "serve_rps_max" l.rps_max

(* ------------------------------------------------------------------ *)
(* kernels and large                                                   *)
(* ------------------------------------------------------------------ *)

(* [pass order] until [seconds] have elapsed and at least [min_passes]
   are done, each over the [n] items in a shuffled order.  Returns the
   mean wall time of a pass. *)
let run_passes ~n rng ~min_passes ~seconds pass =
  let t0 = Util.now () in
  let passes = ref 0 in
  while !passes < min_passes || Util.now () -. t0 < seconds do
    pass (Util.shuffle rng (Array.init n Fun.id));
    incr passes
  done;
  (Util.now () -. t0) /. float_of_int !passes

let corpus_workload args ~machine ~setup ~min_passes =
  let setup_s, items = repeated_setup setup in
  let n = Array.length items in
  let rng = Random.State.make [| args.seed; Hashtbl.hash args.workload |] in
  let ub = A.create A.Briggs machine n and us = A.create A.Ssa machine n in
  Trace.enabled := args.trace;
  A.prove_pass ~measure:false [ ub; us ] items;
  Trace.enabled := false;
  let finish () =
    A.huge_baseline ub items;
    A.huge_baseline us items
  in
  let passes accs ~min_passes ~seconds =
    run_passes ~n rng ~min_passes ~seconds (A.measured_pass accs items)
  in
  let report b s =
    let e2e =
      Layers.end_to_end ~setup_s ~peak_mb:(Util.peak_rss_mb ())
        ~kinstr_per_s:(A.kinstr_per_s b) ~alloc_ms:b.A.alloc_ms
        ~ssa_alloc_ms:s.A.alloc_ms ~verify_ms:b.A.verify_ms b s
    in
    print_report ~workload:args.workload ~e2e ~alloc_ms:b.A.alloc_ms
      ~ssa_alloc_ms:s.A.alloc_ms ~verify_ms:b.A.verify_ms ~serve:None;
    e2e
  in
  if not args.trace then begin
    ignore (passes [ ub; us ] ~min_passes ~seconds:args.seconds);
    finish ();
    report ub us
  end
  else begin
    (* Half the time untraced, half traced, each at least half the
       passes; the traced accumulators share the proofs and counts. *)
    let half = args.seconds /. 2. and min_passes = (min_passes + 1) / 2 in
    let untraced = passes [ ub; us ] ~min_passes ~seconds:half in
    let shared (u : A.acc) =
      {
        (A.create u.A.family machine n) with
        A.alloc_counts = u.A.alloc_counts;
        huge_counts = u.A.huge_counts;
        proved = u.A.proved;
      }
    in
    let tb = shared ub and ts = shared us in
    Trace.enabled := true;
    let minor0, major0 = gc_counts () in
    let traced =
      Trace.span ("workload " ^ args.workload) (fun () ->
          passes [ tb; ts ] ~min_passes ~seconds:half)
    in
    let minor1, major1 = gc_counts () in
    let per_pass x = x /. float_of_int (max 1 tb.A.passes) in
    let iloc = Trace.span "iloc probes" (fun () -> Iloc_probe.run items) in
    finish ();
    ignore (report tb ts);
    Layers.per_layer ~briggs:tb ~ssa:ts ~verifier:tb ~iloc ~serve:Layers.no_serve
      ~gc_minor:(per_pass (minor1 -. minor0))
      ~gc_major:(per_pass (major1 -. major0))
      ~overhead:(traced /. untraced)
  end

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_workload args =
  let setup_s, uni =
    repeated_setup (fun () ->
        let uni = S.build_universe () in
        S.stop_server (S.start_server ());
        uni)
  in
  if args.trace then Trace.enabled := true;
  (* The cold oracle: one allocation of every routine the stream can ask
     for, under each family, proved and simulated.  Its outputs are the
     texts responses must equal; its Stats rows are the per-layer
     allocator figures.  It runs before the server domain starts, and so
     do the verifier's timed passes over the briggs texts, parsed back
     as a client would. *)
  let items = uni.S.items in
  let n = Array.length items in
  let ub = A.create A.Briggs S.machine n and us = A.create A.Ssa S.machine n in
  A.prove_pass ~measure:true [ ub; us ] items;
  A.huge_baseline ub items;
  A.huge_baseline us items;
  let texts (a : A.acc) = Array.map (Option.value ~default:"") a.A.proved in
  let refs = { S.briggs = texts ub; ssa_texts = texts us } in
  let uv = A.create A.Briggs S.machine n in
  let outputs = Array.map Iloc.Parser.routine refs.S.briggs in
  let rng = Random.State.make [| args.seed; n |] in
  ignore
    (Trace.span "verify passes" (fun () ->
         run_passes ~n rng ~min_passes:1 ~seconds:(args.seconds *. 0.15)
           (A.verify_pass uv items outputs)));
  let server = S.start_server () in
  let c = S.client server uni refs (S.stream args.seed) in
  S.warmup c ~n:S.warmup_requests;
  let closed_s = args.seconds *. 0.45 in
  let closed traced seconds =
    Trace.enabled := traced;
    S.closed_loop c ~until:(Util.now () +. seconds)
  in
  (* Saturation first.  Traced, the closed loop alternates untraced and
     traced slices so that both see the same stretch of the stream; the
     figures are those of the untraced slices. *)
  let (sat : S.closed_result), overhead =
    if not args.trace then (closed false closed_s, 1.)
    else begin
      let untraced = ref [] and traced = ref [] in
      for k = 1 to 8 do
        let on = k mod 2 = 0 in
        let r = closed on (closed_s /. 8.) in
        if on then traced := r :: !traced else untraced := r :: !untraced
      done;
      let mean f l = List.fold_left (fun a r -> a +. f r) 0. l /. 4. in
      let rps l = mean (fun (r : S.closed_result) -> r.S.rps) l in
      let all f = List.concat_map f !untraced in
      ( {
          S.rps = rps !untraced;
          kinstr_per_s = mean (fun r -> r.S.kinstr_per_s) !untraced;
          briggs_ms = all (fun r -> r.S.briggs_ms);
          ssa_ms = all (fun r -> r.S.ssa_ms);
        },
        rps !untraced /. rps !traced )
    end
  in
  let rate = S.open_load *. sat.S.rps in
  let logged0 = c.S.next_id in
  let minor0, major0 = gc_counts () in
  let o =
    Trace.span "open loop" (fun () ->
        S.open_loop c ~rate ~seconds:(args.seconds *. 0.35) ~seed:args.seed)
  in
  let minor1, major1 = gc_counts () in
  let logged1 = c.S.next_id in
  let per_req x = x /. float_of_int (max 1 o.S.sent) in
  S.stop_server server;
  let answered = float_of_int (max 1 (o.S.hits + o.S.incremental + o.S.cold)) in
  let layer =
    {
      Layers.no_serve with
      Layers.hit_share = float_of_int o.S.hits /. answered;
      incremental_share = float_of_int o.S.incremental /. answered;
      edit_fallbacks = float_of_int o.S.edit_fallbacks;
      evictions = float_of_int o.S.evictions;
      p50_ms = Util.median o.S.latency_ms;
      p99_ms = Util.percentile 0.99 o.S.latency_ms;
      rps_max = sat.S.rps;
      late_ms_p99 = Util.percentile 0.99 o.S.late_ms;
      sent = float_of_int o.S.sent;
      completed = float_of_int o.S.completed;
      failed = float_of_int o.S.failed;
    }
  in
  let layer =
    if not args.trace then layer
    else begin
      Trace.enabled := true;
      (* The open loop's requests, oldest first. *)
      let log = Array.of_list (List.rev c.S.log) in
      let r =
        Trace.span "handle_batch replay" (fun () ->
            S.replay_batches uni refs (Array.sub log logged0 (logged1 - logged0)))
      in
      let inc =
        Trace.span "incremental probe" (fun () -> S.incremental_probe uni refs)
      in
      {
        layer with
        Layers.snapshot_ms = inc.S.snapshot_ms;
        incremental_ms = inc.S.incremental_ms;
        cold_ms = inc.S.cold_ms;
        requests_per_wave = r.S.requests_per_wave;
        handle_batch_ms = r.S.handle_batch_ms;
        protocol_parse_us = r.S.protocol_parse_us;
        protocol_encode_us = r.S.protocol_encode_us;
      }
    end
  in
  (* Served figures: throughput and request latency by family at
     saturation.  Open-loop latency stays a per-layer figure: it waits
     on the host waking the idle server thread, and on a 2-vCPU x86-64
     VM with one core's worth of CPU its p50 for one seed ranged from
     1.3 to 4.6 ms across runs. *)
  let e2e =
    Layers.end_to_end ~setup_s ~peak_mb:(Util.peak_rss_mb ())
      ~kinstr_per_s:sat.S.kinstr_per_s ~alloc_ms:sat.S.briggs_ms
      ~ssa_alloc_ms:sat.S.ssa_ms ~verify_ms:uv.A.verify_ms ub us
  in
  print_report ~workload:"serve" ~e2e ~alloc_ms:sat.S.briggs_ms
    ~ssa_alloc_ms:sat.S.ssa_ms ~verify_ms:uv.A.verify_ms ~serve:(Some layer);
  Printf.printf
    "  open loop: %.1f req/s offered (%.2f of %.1f), %d sent, hits %d, \
     incremental %d, cold %d\n"
    rate S.open_load sat.S.rps o.S.sent o.S.hits o.S.incremental o.S.cold;
  if not args.trace then e2e
  else
    let iloc = Trace.span "iloc probes" (fun () -> Iloc_probe.run items) in
    Layers.per_layer ~briggs:ub ~ssa:us ~verifier:uv ~iloc ~serve:layer
      ~gc_minor:(per_req (minor1 -. minor0))
      ~gc_major:(per_req (major1 -. major0))
      ~overhead

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let parse_args argv =
  let a =
    ref
      {
        workload = "";
        seed = -1;
        seconds = -1.;
        trace = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--check-calibration" :: _ -> check_calibration ()
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with seed = int_of_string v };
        go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v };
        go rest
    | "--trace" :: v :: rest ->
        a := { !a with trace = int_of_string v <> 0 };
        go rest
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  (try go (List.tl (Array.to_list argv))
   with Failure _ -> die "malformed number");
  let a = !a in
  if a.seed < 0 then die "--seed N (N >= 0) is required";
  if a.seconds <= 0. then die "--seconds S (S > 0) is required";
  a

let () =
  let args = parse_args Sys.argv in
  let metrics =
    try
      match args.workload with
      | "kernels" ->
          corpus_workload args ~machine:Remat.Machine.standard
            ~setup:kernels_setup ~min_passes:1
      | "large" ->
          (* A measured pass takes about 5 s here. *)
          corpus_workload args ~machine:Scale_bench.Scale.machine
            ~setup:large_setup ~min_passes:5
      | "serve" -> serve_workload args
      | w -> die ("unknown workload " ^ w)
    with S.Connection_lost msg ->
      prerr_endline ("perfbench: serve connection lost: " ^ msg);
      exit 1
  in
  if args.trace then begin
    Util.print_table (args.workload ^ ": per layer") metrics;
    let dir = Filename.concat "perfbench" "out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir ("trace-" ^ args.workload ^ ".json") in
    Trace.write path;
    Printf.printf "trace: %d events written to %s\n" !Trace.n_events path
  end;
  print_endline (Util.result_line metrics)
