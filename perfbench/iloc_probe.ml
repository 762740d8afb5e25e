(* Outside timings of the IR bridging calls on the workload's own
   inputs: the printer and parser (every serve request is parsed and
   hashed), validation, content hashing, critical-edge splitting and
   the flat-arena encode/decode the allocator performs before and after
   its phases.  These are the calls Remat.Stats does not time, so they
   locate the unattributed share of an allocation. *)

type t = {
  parse_ms : float;
  print_ms : float;
  validate_ms : float;
  content_hash_ms : float;
  split_edges_ms : float;
  flat_encode_ms : float;
  flat_decode_ms : float;
}

(* Times per pass over [items] are medians over repeated passes: at
   least [min_reps], and more, up to [max_reps], while under [budget_s]. *)
let min_reps = 3
let max_reps = 50
let budget_s = 0.5

(* The first pass records a span per call and checks the round trips:
   parse ∘ print and to_routine ∘ of_routine preserve the content
   hash. *)
let run (items : Alloc_bench.item array) =
  let names =
    [| "parse"; "print"; "validate"; "content_hash"; "split_edges";
       "flat_encode"; "flat_decode" |]
  in
  let one_pass ~check =
    let t = Array.make 7 0. in
    let step k f =
      let v, dt =
        Util.timed (fun () -> if check then Trace.span names.(k) f else f ())
      in
      t.(k) <- t.(k) +. dt;
      v
    in
    Array.iter
      (fun (item : Alloc_bench.item) ->
        let src = item.Alloc_bench.src in
        let text = step 1 (fun () -> Iloc.Printer.routine_to_string src) in
        let parsed = step 0 (fun () -> Iloc.Parser.routine text) in
        let valid = step 2 (fun () -> Iloc.Validate.routine src) in
        let hash = step 3 (fun () -> Iloc.Cfg.content_hash src) in
        let split = step 4 (fun () -> Iloc.Cfg.split_critical_edges src) in
        let flat = step 5 (fun () -> Iloc.Flat.of_routine split) in
        let back = step 6 (fun () -> Iloc.Flat.to_routine flat) in
        if check then begin
          let what = "iloc round trip " ^ item.Alloc_bench.name in
          Util.attempt (Result.is_ok valid) (what ^ ": validation failed");
          Util.attempt
            (String.equal (Iloc.Cfg.content_hash parsed) hash)
            (what ^ ": parse . print changed the routine");
          Util.attempt
            (String.equal (Iloc.Cfg.content_hash back)
               (Iloc.Cfg.content_hash split))
            (what ^ ": to_routine . of_routine changed the routine")
        end)
      items;
    t
  in
  let passes = ref [] in
  let t0 = Util.now () in
  let reps = ref 0 in
  while !reps < min_reps || (Util.now () -. t0 < budget_s && !reps < max_reps) do
    let check = !reps = 0 in
    passes := Trace.span "iloc probe pass" (fun () -> one_pass ~check) :: !passes;
    incr reps
  done;
  let ms k = 1000. *. Util.median (List.map (fun p -> p.(k)) !passes) in
  {
    parse_ms = ms 0;
    print_ms = ms 1;
    validate_ms = ms 2;
    content_hash_ms = ms 3;
    split_edges_ms = ms 4;
    flat_encode_ms = ms 5;
    flat_decode_ms = ms 6;
  }
