(* Growable buffer of (key, payload) int pairs with a stable LSD radix
   sort — the substrate of the batched interference build.  Phase one of
   that build appends millions of candidate edge pairs with no
   membership checks; phase two sorts them by key (packed endpoint
   pair), drops duplicate keys keeping the first occurrence, and then
   re-sorts the survivors by payload (emission sequence number) to
   recover chronological order.  Both sorts are stable counting sorts on
   16-bit digits, ping-ponging between the live arrays and a scratch
   pair that is kept across [clear]s, so a buffer reused round over
   round allocates nothing in steady state.  The 512 KB digit histogram
   is allocated by the first sort: every allocation context owns a
   buffer, but only builds above the batching threshold ever sort. *)

type t = {
  mutable keys : int array;
  mutable pays : int array;
  mutable len : int;
  mutable sk : int array;  (* sort scratch, same capacity as keys *)
  mutable sp : int array;
  mutable count : int array;  (* 65536-entry digit histogram, or [||] *)
}

let create ?(cap = 1024) () =
  let cap = max cap 1 in
  {
    keys = Array.make cap 0;
    pays = Array.make cap 0;
    len = 0;
    sk = [||];
    sp = [||];
    count = [||];
  }

let length t = t.len
let clear t = t.len <- 0
let unsafe_key t i = Array.unsafe_get t.keys i
let unsafe_pay t i = Array.unsafe_get t.pays i

let push t ~key ~pay =
  if t.len = Array.length t.keys then begin
    let cap = 2 * t.len in
    let keys = Array.make cap 0 and pays = Array.make cap 0 in
    Array.blit t.keys 0 keys 0 t.len;
    Array.blit t.pays 0 pays 0 t.len;
    t.keys <- keys;
    t.pays <- pays
  end;
  Array.unsafe_set t.keys t.len key;
  Array.unsafe_set t.pays t.len pay;
  t.len <- t.len + 1

(* Scratch tracks the main arrays' capacity so the ping-pong swap below
   can retire either pair as the other's scratch. *)
let ensure_scratch t =
  if Array.length t.sk < Array.length t.keys then begin
    t.sk <- Array.make (Array.length t.keys) 0;
    t.sp <- Array.make (Array.length t.keys) 0
  end

let sort ~by_pay t =
  let len = t.len in
  if len > 1 then begin
    ensure_scratch t;
    let m = ref 0 in
    let arr0 = if by_pay then t.pays else t.keys in
    for i = 0 to len - 1 do
      let v = Array.unsafe_get arr0 i in
      if v > !m then m := v
    done;
    let passes = ref 0 in
    let mm = ref !m in
    while !mm > 0 do
      incr passes;
      mm := !mm lsr 16
    done;
    if Array.length t.count = 0 then t.count <- Array.make 65536 0;
    let count = t.count in
    let src_k = ref t.keys and src_p = ref t.pays in
    let dst_k = ref t.sk and dst_p = ref t.sp in
    for pass = 0 to !passes - 1 do
      let sh = pass * 16 in
      let kb = !src_k and pb = !src_p in
      let digits = if by_pay then pb else kb in
      Array.fill count 0 65536 0;
      for i = 0 to len - 1 do
        let d = (Array.unsafe_get digits i lsr sh) land 0xffff in
        Array.unsafe_set count d (Array.unsafe_get count d + 1)
      done;
      (* A pass where every element shares one digit is the identity. *)
      let d0 = (Array.unsafe_get digits 0 lsr sh) land 0xffff in
      if Array.unsafe_get count d0 <> len then begin
        let sum = ref 0 in
        for d = 0 to 65535 do
          let c = Array.unsafe_get count d in
          Array.unsafe_set count d !sum;
          sum := !sum + c
        done;
        let ok = !dst_k and op = !dst_p in
        for i = 0 to len - 1 do
          let d = (Array.unsafe_get digits i lsr sh) land 0xffff in
          let pos = Array.unsafe_get count d in
          Array.unsafe_set count d (pos + 1);
          Array.unsafe_set ok pos (Array.unsafe_get kb i);
          Array.unsafe_set op pos (Array.unsafe_get pb i)
        done;
        let tk = !src_k in
        src_k := !dst_k;
        dst_k := tk;
        let tp = !src_p in
        src_p := !dst_p;
        dst_p := tp
      end
    done;
    t.keys <- !src_k;
    t.pays <- !src_p;
    t.sk <- !dst_k;
    t.sp <- !dst_p
  end

let sort_by_key t = sort ~by_pay:false t
let sort_by_pay t = sort ~by_pay:true t

let dedupe_by_key t =
  let len = t.len in
  if len = 0 then 0
  else begin
    let keys = t.keys and pays = t.pays in
    let w = ref 1 in
    for i = 1 to len - 1 do
      let k = Array.unsafe_get keys i in
      if k <> Array.unsafe_get keys (!w - 1) then begin
        Array.unsafe_set keys !w k;
        Array.unsafe_set pays !w (Array.unsafe_get pays i);
        incr w
      end
    done;
    let dropped = len - !w in
    t.len <- !w;
    dropped
  end
