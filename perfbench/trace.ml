(* Spans recorded around the benchmark's calls into each layer, kept in
   memory and written at the end as Chrome trace-event JSON (the
   "traceEvents" object form), which Perfetto and chrome://tracing open
   directly.

   Synchronous spans are complete ("X") events on the main thread;
   spans nest by time containment.  Serve requests overlap in time, so
   each one is an async ("b"/"e") event keyed by its request id, with
   its encode/write/read phases nested under the same id.  When tracing
   is off nothing is recorded and [span] is a plain call. *)

let enabled = ref false
let origin = Util.now ()
let events : string list ref = ref []
let n_events = ref 0

let us t = (t -. origin) *. 1e6

let add e =
  events := e :: !events;
  incr n_events

let args_json args =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Util.json_string k) v) args)

let complete ~name ~t0 ~t1 args =
  add
    (Printf.sprintf
       "{\"name\": %s, \"cat\": \"bench\", \"ph\": \"X\", \"ts\": %.3f, \
        \"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {%s}}"
       (Util.json_string name) (us t0)
       ((t1 -. t0) *. 1e6)
       (args_json args))

(* [span_with name f args_of] runs [f] and, when tracing, records a span
   whose args are computed from the result. *)
let span_with name f args_of =
  if not !enabled then f ()
  else begin
    let t0 = Util.now () in
    let v = f () in
    let t1 = Util.now () in
    complete ~name ~t0 ~t1 (args_of v);
    v
  end

let span name f = span_with name f (fun _ -> [])

let async ~ph ~id ~name t =
  add
    (Printf.sprintf
       "{\"name\": %s, \"cat\": \"request\", \"ph\": \"%s\", \"id\": %d, \
        \"ts\": %.3f, \"pid\": 1, \"tid\": 1}"
       (Util.json_string name) ph id (us t))

(* One async interval of request [id]; intervals of one id nest by
   time. *)
let interval ~id ~name ~t0 ~t1 =
  if !enabled then begin
    async ~ph:"b" ~id ~name t0;
    async ~ph:"e" ~id ~name t1
  end

let write path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      output_string oc e)
    (List.rev !events);
  output_string oc "\n]}\n";
  close_out oc
