(* Clocks, sample statistics and the result line shared by every
   workload. *)

let now = Unix.gettimeofday

(* [timed f] is [(f (), seconds)]. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 0.5 xs

(* Resident-set high-water mark of this process, in MiB.  Falls back to
   the OCaml heap's high-water mark where /proc is not mounted. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf
                (String.sub l 6 (String.length l - 6))
                " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* Deterministic Fisher–Yates shuffle. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A JSON number with every digit the float carries; non-finite values
   (an empty sample) print as 0 and are flagged by the caller. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* ------------------------------------------------------------------ *)
(* Outcome bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

(* Every operation the benchmark checks is attempted once; a failure
   records a one-line reason (printed to stderr, first few only). *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 20 then prerr_endline ("perfbench: FAILED " ^ what)
  end

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_table title ms =
  Printf.printf "-- %s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6g %s\n" m.name m.value m.unit_)
    ms

let result_line ms =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " fields)
