(* The serve workload: a seeded request stream over one framed
   connection to Serve.Server.serve_fds.

   The server runs with one job on its own domain; the client runs on
   the main domain and multiplexes sending and receiving with select,
   so the pair never uses more than two busy threads.

   The stream draws from a fixed universe of [n_bases] Fuzz.Gen.default
   routines and [n_variants] seeded edits (Fuzz.Gen.mutate) of each;
   the workload seed drives the stream, not the universe, so runs with
   different seeds allocate the same routines.  A briggs request asks
   for a base (an Alloc) or for one of its variants (an Edit naming the
   base's hash).  A share [ssa_rate] of the requests ask for a base
   under ssa instead, as an Alloc: the incremental path declines SSA
   modes, so an ssa edit would only be one more cold miss.  Popularity
   is skewed towards low base indices.  The server's cache holds fewer
   entries than the stream asks for, so the mix has hits, incremental
   edits, and cold misses after evictions.

   Phases: a closed-loop warm-up that fills the cache; a closed loop
   with a fixed window of outstanding requests, whose completions per
   second give the saturation throughput, each request timed from its
   framing to its response; an open loop offering half that
   throughput, each request timed from its due time to its response.
   Every response is compared byte for byte with a cold allocation of
   the same routine under the same family. *)

module P = Serve.Protocol
module Frame = Serve.Frame
module Server = Serve.Server

let n_bases = 48
let n_variants = 8
let edit_rate = 0.3
let ssa_rate = 0.2
let cache_capacity = 96
let warmup_requests = 400

(* Outstanding requests in the closed-loop phases, and the open loop's
   arrival rate as a share of the closed loop's throughput. *)
let window = 8
let open_load = 0.5

(* Requests ask for the fuzz oracle's tight 6+6 machine: Gen.default
   routines never spill on 16+16, and spill rounds are part of what a
   served allocation costs. *)
let alloc_config = { P.standard_config with P.k_int = 6; k_float = 6 }
let ssa_config = { alloc_config with P.mode = Alloc_bench.mode Alloc_bench.Ssa }
let machine = P.machine_of_config alloc_config

let server_config =
  {
    Server.default_config with
    Server.jobs = 1;
    cache_capacity;
    snapshots = true;
  }

type universe = {
  items : Alloc_bench.item array;  (** bases, then variants, base-major *)
  payloads : string array;  (** the briggs request for each routine *)
  ssa_payloads : string array;  (** the ssa request for each routine *)
}

(* A request: routine [u] of the universe, under ssa or briggs. *)
type request = { u : int; ssa : bool }

let payload uni r = if r.ssa then uni.ssa_payloads.(r.u) else uni.payloads.(r.u)

(* What a response must print: each routine's proved cold allocation,
   by family. *)
type refs = { briggs : string array; ssa_texts : string array }

let expected refs r = if r.ssa then refs.ssa_texts.(r.u) else refs.briggs.(r.u)

let variant b v = n_bases + (b * n_variants) + v
let base_of u = if u < n_bases then u else (u - n_bases) / n_variants
let is_edit r = r.u >= n_bases && not r.ssa

let universe_seed = 1

let build_universe () =
  let seed = universe_seed in
  let bases =
    Array.init n_bases (fun b ->
        Fuzz.Gen.generate ~config:Fuzz.Gen.default ((seed * 1000) + b))
  in
  let cfgs =
    Array.init
      (n_bases * (1 + n_variants))
      (fun u ->
        if u < n_bases then bases.(u)
        else
          let b = base_of u and v = (u - n_bases) mod n_variants in
          Fuzz.Gen.mutate ~seed:((seed * 1_000_003) + (b * 97) + v) bases.(b))
  in
  let texts = Array.map Iloc.Printer.routine_to_string cfgs in
  let hashes = Array.map Iloc.Cfg.content_hash bases in
  let config = alloc_config in
  let payloads =
    Array.mapi
      (fun u text ->
        P.encode_request
          (if u >= n_bases then P.Edit { config; base = hashes.(base_of u); text }
           else P.Alloc { config; text }))
      texts
  in
  let ssa_payloads =
    Array.map (fun text -> P.encode_request (P.Alloc { config = ssa_config; text })) texts
  in
  (* The server parses the text it receives; the reference allocations
     start from the same parse. *)
  let items =
    Array.mapi
      (fun u text ->
        Alloc_bench.make_item
          (Printf.sprintf "u%d" u)
          (Iloc.Parser.routine text))
      texts
  in
  { items; payloads; ssa_payloads }

(* The request stream: an endless deterministic sequence of requests. *)
let stream seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  fun () ->
    let x = Random.State.float rng 1.0 in
    let b = min (n_bases - 1) (int_of_float (float_of_int n_bases *. x *. x)) in
    let ssa = Random.State.float rng 1.0 < ssa_rate in
    let u =
      if (not ssa) && Random.State.float rng 1.0 < edit_rate then
        variant b (Random.State.int rng n_variants)
      else b
    in
    { u; ssa }

(* ------------------------------------------------------------------ *)
(* The connection                                                      *)
(* ------------------------------------------------------------------ *)

type server = {
  srv : Server.t;
  domain : unit Domain.t;
  fd : Unix.file_descr;  (** client end, non-blocking *)
  reader : Frame.reader;
}

let start_server () =
  let client, server_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let srv = Server.create ~config:server_config () in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Unix.close server_end)
          (fun () -> Server.serve_fds srv ~in_fd:server_end ~out_fd:server_end))
  in
  Unix.set_nonblock client;
  { srv; domain; fd = client; reader = Frame.reader client }

(* Closing our sending side is the server's end of input; it answers
   what it has read, returns, and its domain ends. *)
let stop_server s =
  (try Unix.shutdown s.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  Domain.join s.domain;
  Server.shutdown s.srv;
  Unix.close s.fd

(* ------------------------------------------------------------------ *)
(* The client                                                          *)
(* ------------------------------------------------------------------ *)

type sent = {
  id : int;
  r : request;
  due : float;
  queued : float;  (** framed into the send buffer *)
  end_byte : int;  (** stream offset just past its last byte *)
}

type client = {
  s : server;
  uni : universe;
  refs : refs;
  next_request : unit -> request;
  mutable next_id : int;
  mutable obuf : Bytes.t;  (** framed bytes [ostart, oend) not yet sent *)
  mutable ostart : int;
  mutable oend : int;
  mutable sent_bytes : int;  (** total bytes handed to the socket *)
  mutable queued_bytes : int;
  unwritten : sent Queue.t;
  inflight : sent Queue.t;  (** responses arrive in request order *)
  mutable on_response : sent -> float -> P.source option -> unit;
  mutable log : (request * float) list;  (** (request, due), newest first *)
}

let client s uni refs next_request =
  {
    s;
    uni;
    refs;
    next_request;
    next_id = 0;
    obuf = Bytes.create 65536;
    ostart = 0;
    oend = 0;
    sent_bytes = 0;
    queued_bytes = 0;
    unwritten = Queue.create ();
    inflight = Queue.create ();
    on_response = (fun _ _ _ -> ());
    log = [];
  }

let append c frame =
  let n = String.length frame in
  if c.oend + n > Bytes.length c.obuf then begin
    let live = c.oend - c.ostart in
    let nb =
      if live + n > Bytes.length c.obuf then
        Bytes.create (max (live + n) (2 * Bytes.length c.obuf))
      else c.obuf
    in
    Bytes.blit c.obuf c.ostart nb 0 live;
    c.obuf <- nb;
    c.ostart <- 0;
    c.oend <- live
  end;
  Bytes.blit_string frame 0 c.obuf c.oend n;
  c.oend <- c.oend + n

let enqueue c ~due =
  let r = c.next_request () in
  let id = c.next_id in
  c.next_id <- id + 1;
  let queued = Util.now () in
  let frame = Frame.to_string (payload c.uni r) in
  append c frame;
  c.queued_bytes <- c.queued_bytes + String.length frame;
  Trace.interval ~id ~name:"encode" ~t0:queued ~t1:(Util.now ());
  let s = { id; r; due; queued; end_byte = c.queued_bytes } in
  Queue.push s c.unwritten;
  Queue.push s c.inflight;
  c.log <- (r, due) :: c.log

let flush c =
  if c.oend > c.ostart then begin
    (match Unix.single_write c.s.fd c.obuf c.ostart (c.oend - c.ostart) with
    | n ->
        c.ostart <- c.ostart + n;
        c.sent_bytes <- c.sent_bytes + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ());
    if c.ostart = c.oend then begin
      c.ostart <- 0;
      c.oend <- 0
    end;
    let t = Util.now () in
    while
      (not (Queue.is_empty c.unwritten))
      && (Queue.peek c.unwritten).end_byte <= c.sent_bytes
    do
      let s = Queue.pop c.unwritten in
      Trace.interval ~id:s.id ~name:"write" ~t0:s.queued ~t1:t
    done
  end

exception Connection_lost of string

let handle c payload =
  let arrived = Util.now () in
  let s = Queue.pop c.inflight in
  let what =
    Printf.sprintf "serve request %d (routine u%d, %s)" s.id s.r.u
      (if s.r.ssa then "ssa" else "briggs")
  in
  let source =
    match P.parse_response payload with
    | Ok (P.Allocated { text; source; _ }) ->
        let ok = String.equal text (expected c.refs s.r) in
        Util.attempt ok (what ^ ": response differs from a cold allocation");
        if ok then Some source else None
    | Ok (P.Err { kind; msg }) ->
        Util.attempt false
          (Printf.sprintf "%s: err %s %s" what (P.err_kind_to_string kind) msg);
        None
    | Ok _ ->
        Util.attempt false (what ^ ": unexpected response");
        None
    | Error msg ->
        Util.attempt false (what ^ ": unparsable response: " ^ msg);
        None
  in
  let t = Util.now () in
  Trace.interval ~id:s.id ~name:"read" ~t0:arrived ~t1:t;
  Trace.interval ~id:s.id ~name:(Printf.sprintf "request %d" s.id) ~t0:s.due
    ~t1:t;
  c.on_response s arrived source

let rec drain c =
  match
    try Frame.poll c.s.reader
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> None
  with
  | None -> ()
  | Some (Frame.Frame p) ->
      if Queue.is_empty c.inflight then
        raise (Connection_lost "response without a request");
      handle c p;
      drain c
  | Some Frame.End_of_input -> raise (Connection_lost "server closed")
  | Some (Frame.Corrupt msg) -> raise (Connection_lost msg)

(* Send what can be sent, then wait up to [timeout] for responses. *)
let pump c timeout =
  flush c;
  let writes = if c.oend > c.ostart then [ c.s.fd ] else [] in
  match Unix.select [ c.s.fd ] writes [] (Float.max 0. timeout) with
  | r, _, _ ->
      flush c;
      if r <> [] then drain c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* A phase that outlives its deadline by this much is abandoned: its
   outstanding requests count as failed. *)
let grace_s = 30.

let settle c ~deadline =
  while (not (Queue.is_empty c.inflight)) && Util.now () < deadline do
    pump c 0.05
  done;
  Queue.iter
    (fun (s : sent) ->
      Util.attempt false (Printf.sprintf "serve request %d: no response" s.id))
    c.inflight;
  if not (Queue.is_empty c.inflight) then
    raise (Connection_lost "requests outstanding past the deadline")

type closed_result = {
  rps : float;  (** correct responses per second *)
  kinstr_per_s : float;  (** their input instructions per second, in thousands *)
  briggs_ms : float list;  (** latencies of the briggs requests *)
  ssa_ms : float list;  (** and of the ssa ones *)
}

(* Closed loop: keep [window] requests outstanding until [until]; the
   figures count the correct responses that arrive by then, each timed
   from its framing to its response. *)
let closed_loop c ~until =
  let t0 = Util.now () in
  let done_ = ref 0 and instrs = ref 0 in
  let briggs = ref [] and ssa = ref [] in
  c.on_response <-
    (fun s t source ->
      if t <= until && source <> None then begin
        incr done_;
        instrs := !instrs + c.uni.items.(s.r.u).Alloc_bench.instrs;
        let ms = (t -. s.due) *. 1000. in
        if s.r.ssa then ssa := ms :: !ssa else briggs := ms :: !briggs
      end);
  while Util.now () < until do
    while Queue.length c.inflight < window do
      enqueue c ~due:(Util.now ())
    done;
    pump c (until -. Util.now ())
  done;
  settle c ~deadline:(until +. grace_s);
  let dt = until -. t0 in
  {
    rps = float_of_int !done_ /. dt;
    kinstr_per_s = float_of_int !instrs /. dt /. 1000.;
    briggs_ms = !briggs;
    ssa_ms = !ssa;
  }

let warmup c ~n =
  let done_ = ref 0 in
  c.on_response <- (fun _ _ _ -> incr done_);
  let started = ref 0 in
  let deadline = Util.now () +. grace_s in
  while !done_ < n && Util.now () < deadline do
    while Queue.length c.inflight < window && !started < n do
      enqueue c ~due:(Util.now ());
      incr started
    done;
    pump c 0.05
  done;
  settle c ~deadline

type open_result = {
  latency_ms : float list;
  late_ms : float list;
  sent : int;
  completed : int;
  failed : int;
  hits : int;
  incremental : int;
  cold : int;
  edit_fallbacks : int;
  evictions : int;
}

(* Open loop: requests for [seconds] with seeded exponential gaps at
   [rate] per second. *)
let open_loop c ~rate ~seconds ~seed =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let rng = Random.State.make [| 0xa771; seed |] in
  let gaps =
    Array.init n (fun _ -> -.Float.log (1. -. Random.State.float rng 1.0) /. rate)
  in
  let evictions0 = (Server.cache_counters c.s.srv).P.evictions in
  let lat = ref [] and late = ref [] in
  let completed = ref 0 and failed = ref 0 in
  let hits = ref 0 and incremental = ref 0 and cold = ref 0 and fallbacks = ref 0 in
  c.on_response <-
    (fun s t source ->
      lat := ((t -. s.due) *. 1000.) :: !lat;
      late := ((s.queued -. s.due) *. 1000.) :: !late;
      match source with
      | None -> incr failed
      | Some src -> (
          incr completed;
          match src with
          | P.Hit -> incr hits
          | P.Incremental -> incr incremental
          | P.Cold ->
              incr cold;
              if is_edit s.r then incr fallbacks));
  let t0 = Util.now () +. 0.005 in
  let due = ref t0 in
  let i = ref 0 in
  let deadline = t0 +. Array.fold_left ( +. ) 0. gaps +. grace_s in
  while (!i < n || not (Queue.is_empty c.inflight)) && Util.now () < deadline do
    let t = Util.now () in
    while !i < n && !due <= t do
      enqueue c ~due:!due;
      due := !due +. gaps.(!i);
      incr i
    done;
    pump c (if !i < n then !due -. Util.now () else 0.05)
  done;
  settle c ~deadline;
  {
    latency_ms = !lat;
    late_ms = !late;
    sent = !i;
    completed = !completed;
    failed = !failed;
    hits = !hits;
    incremental = !incremental;
    cold = !cold;
    edit_fallbacks = !fallbacks;
    evictions = (Server.cache_counters c.s.srv).P.evictions - evictions0;
  }

(* ------------------------------------------------------------------ *)
(* Probes for the traced run                                           *)
(* ------------------------------------------------------------------ *)

type replay = {
  requests_per_wave : float;
  handle_batch_ms : float;
  protocol_parse_us : float;
  protocol_encode_us : float;
}

(* Replay logged requests through [Server.handle_batch] on a fresh
   server, timing each wave and the mean protocol decode and encode
   cost per request.  Waves are formed on a virtual clock the way the wire loop
   drains its socket: a wave starts when the previous one ends (or at
   the next due time) and takes every request due by then, up to the
   batch limit. *)
let replay_batches uni refs (log : (request * float) array) =
  let srv = Server.create ~config:server_config () in
  let n = Array.length log in
  let parse_s = ref 0. and encode_s = ref 0. and batch_ms = ref [] in
  let waves = ref 0 in
  let i = ref 0 in
  let vt = ref (if n > 0 then snd log.(0) else 0.) in
  while !i < n do
    vt := Float.max !vt (snd log.(!i));
    let j = ref !i in
    while
      !j < n && snd log.(!j) <= !vt && !j - !i < server_config.Server.batch_limit
    do
      incr j
    done;
    let wave = Array.sub log !i (!j - !i) in
    let reqs =
      Array.to_list
        (Array.map
           (fun (r, _) ->
             let req, dt = Util.timed (fun () -> P.parse_request (payload uni r)) in
             parse_s := !parse_s +. dt;
             req)
           wave)
    in
    let responses, dt =
      Util.timed (fun () ->
          Trace.span "handle_batch" (fun () -> Server.handle_batch srv reqs))
    in
    batch_ms := (dt *. 1000.) :: !batch_ms;
    List.iteri
      (fun k resp ->
        let r = fst wave.(k) in
        let _, dt = Util.timed (fun () -> P.encode_response resp) in
        encode_s := !encode_s +. dt;
        Util.attempt
          (match resp with
          | P.Allocated { text; _ } -> String.equal text (expected refs r)
          | _ -> false)
          (Printf.sprintf "handle_batch replay u%d: response differs" r.u))
      responses;
    incr waves;
    vt := !vt +. dt;
    i := !j
  done;
  Server.shutdown srv;
  {
    requests_per_wave = float_of_int n /. float_of_int (max 1 !waves);
    handle_batch_ms = Util.median !batch_ms;
    protocol_parse_us = 1e6 *. !parse_s /. float_of_int (max 1 n);
    protocol_encode_us = 1e6 *. !encode_s /. float_of_int (max 1 n);
  }

type incremental = {
  snapshot_ms : float;
  incremental_ms : float;
  cold_ms : float;
}

(* Snapshot every base and allocate each of its variants incrementally
   from it and cold; every incremental result must print exactly as the
   cold reference does.  A variant the incremental path declines is not
   timed. *)
let incremental_probe uni refs =
  let mode = alloc_config.P.mode in
  let snap_ms = ref [] and inc_ms = ref [] and cold_ms = ref [] in
  for b = 0 to n_bases - 1 do
    let snap, dt =
      Util.timed (fun () ->
          Trace.span "snapshot" (fun () ->
              Remat.Allocator.snapshot ~mode ~machine uni.items.(b).Alloc_bench.src))
    in
    snap_ms := (dt *. 1000.) :: !snap_ms;
    for v = 0 to n_variants - 1 do
      let u = variant b v in
      let src = uni.items.(u).Alloc_bench.src in
      (match
         Util.timed (fun () ->
             Trace.span "allocate (cold)" (fun () ->
                 Remat.Allocator.allocate ~mode ~machine src))
       with
      | _, dt -> cold_ms := (dt *. 1000.) :: !cold_ms
      | exception e ->
          Util.attempt false
            (Printf.sprintf "allocate u%d: %s" u (Alloc_bench.describe e)));
      match
        Util.timed (fun () ->
            Trace.span "allocate_incremental" (fun () ->
                Remat.Allocator.allocate_incremental snap src))
      with
      | exception e ->
          Util.attempt false
            (Printf.sprintf "allocate_incremental u%d: %s" u
               (Alloc_bench.describe e))
      | None, _ -> ()
      | Some (res, _), dt ->
          inc_ms := (dt *. 1000.) :: !inc_ms;
          Util.attempt
            (String.equal
               (Iloc.Printer.routine_to_string res.Remat.Allocator.cfg)
               refs.briggs.(u))
            (Printf.sprintf "allocate_incremental u%d: differs from cold" u)
    done
  done;
  {
    snapshot_ms = Util.median !snap_ms;
    incremental_ms = Util.median !inc_ms;
    cold_ms = Util.median !cold_ms;
  }
