(* A fixed reference computation, owned by the benchmark and independent
   of the program under test: a 2 MB binary heap of simulated-time keys
   driven like an event queue, float accumulation and short-lived
   allocation, the same mix of work as the simulator's tick path.  Its
   duration, taken next to each measured pass, tracks how fast the machine
   is running at that moment (shared hosts change speed by up to 2x within
   seconds). *)

let size = 1 lsl 18

let run () =
  let heap = Array.make size 0 in
  let n = ref 0 in
  let push k =
    let i = ref !n in
    incr n;
    heap.(!i) <- k;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      let p = (!i - 1) / 2 in
      let t = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- t;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    heap.(0) <- heap.(!n);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let m = ref !i in
      if l < !n && heap.(l) < heap.(!m) then m := l;
      if r < !n && heap.(r) < heap.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let t = heap.(!m) in
        heap.(!m) <- heap.(!i);
        heap.(!i) <- t;
        i := !m
      end
    done;
    top
  in
  let seed = ref 12345 in
  let next () =
    seed := (!seed * 1103515245 + 12345) land 0x3fffffff;
    !seed
  in
  for _ = 1 to size do
    push (next ())
  done;
  let acc = ref 0.0 and live = ref [] in
  for step = 1 to 150_000 do
    let k = pop () in
    push (k + (next () land 0xffff));
    acc := !acc +. (float_of_int (k land 0xff) *. 1.0001);
    live := (k, !acc) :: !live;
    if step land 1023 = 0 then live := []
  done;
  ignore (Sys.opaque_identity (!acc, !live))

(* Duration of one reference run, in nanoseconds. *)
let time () =
  let t0 = Spans.now_ns () in
  run ();
  Spans.now_ns () - t0

(* The reference's duration on a quiet 2.1 GHz Xeon vCPU.  Times reported
   "at the reference speed" are scaled by [nominal_ns] over the reference
   duration measured around them. *)
let nominal_ns = 26_000_000

(* Factor taking a time measured between reference runs of [before] and
   [after] nanoseconds to the reference speed. *)
let speed before after = float_of_int nominal_ns /. (float_of_int (before + after) /. 2.0)
