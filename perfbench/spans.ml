(* Layer spans, recorded from outside the program.

   A span is opened around one call into a layer's public plug-in
   interface and closed when the call returns.  Spans nest (a workload's
   [has_work] runs inside the scheduler's [pick]), so each open span keeps
   its start time and minor-words reading on a stack, and on close its
   duration is charged to the span and to its parent's child time.  A
   span's self time is its duration minus its children's: the self times
   of all spans add up to the time covered by root-level spans, exactly,
   in integer nanoseconds.

   Everything lives in preallocated arrays and the clock is an unboxed C
   call, so opening and closing a span allocates nothing; what it does
   cost is calibrated on empty spans and subtracted ({!calibrate}).  The
   traced run is serial, on one domain. *)

external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

type id = int

let names =
  [|
    "setup.build";
    "hypervisor.run_self";
    "sched.pick";
    "sched.charge";
    "sched.account";
    "sched.window";
    "governors.observe";
    "workload.advance";
    "workload.has_work";
    "workload.execute";
    "experiments.render";
    "experiments.csv";
    (* calibration only, never reported *)
    "calibration.parent";
    "calibration.child";
  |]

let setup_build = 0
let hypervisor_run = 1
let sched_pick = 2
let sched_charge = 3
let sched_account = 4
let sched_window = 5
let governors_observe = 6
let workload_advance = 7
let workload_has_work = 8
let workload_execute = 9
let experiments_render = 10
let experiments_csv = 11
let calibration_parent = 12
let calibration_child = 13
let reported = 12
let n = Array.length names
let calls = Array.make n 0
let total_ns = Array.make n 0
let child_ns = Array.make n 0
let total_words = Array.make n 0.0
let child_words = Array.make n 0.0

(* Direct children opened under each span; [root_children] counts spans
   opened with nothing open. *)
let child_calls = Array.make n 0
let root_children = ref 0
let root_ns = ref 0
let max_depth = 64
let stack_id = Array.make max_depth 0
let stack_t0 = Array.make max_depth 0
let stack_w0 = Array.make max_depth 0.0
let depth = ref 0

let reset () =
  Array.fill calls 0 n 0;
  Array.fill total_ns 0 n 0;
  Array.fill child_ns 0 n 0;
  Array.fill total_words 0 n 0.0;
  Array.fill child_words 0 n 0.0;
  Array.fill child_calls 0 n 0;
  root_children := 0;
  root_ns := 0;
  depth := 0

let enter id =
  let d = !depth in
  if d = 0 then incr root_children
  else begin
    let p = stack_id.(d - 1) in
    child_calls.(p) <- child_calls.(p) + 1
  end;
  stack_id.(d) <- id;
  depth := d + 1;
  stack_w0.(d) <- Gc.minor_words ();
  stack_t0.(d) <- now_ns ()

let leave () =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let id = stack_id.(d) in
  let dt = t1 - stack_t0.(d) and dw = w1 -. stack_w0.(d) in
  calls.(id) <- calls.(id) + 1;
  total_ns.(id) <- total_ns.(id) + dt;
  total_words.(id) <- total_words.(id) +. dw;
  if d > 0 then begin
    let p = stack_id.(d - 1) in
    child_ns.(p) <- child_ns.(p) + dt;
    child_words.(p) <- child_words.(p) +. dw
  end
  else root_ns := !root_ns + dt

let with_span id f =
  enter id;
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

(* The cost of one empty span, split where it lands: [inside] is the part
   its own clock readings enclose (inflating its self time), [outside] the
   part its parent sees around it (inflating the parent's self time, or the
   unattributed gap for a root-level span).  Medians of several rounds. *)
type cost = { inside_ns : float; outside_ns : float; inside_words : float; outside_words : float }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let calibrate () =
  let per = 100_000 in
  let round () =
    reset ();
    enter calibration_parent;
    for _ = 1 to per do
      enter calibration_child;
      leave ()
    done;
    leave ();
    let k = float_of_int per in
    ( float_of_int total_ns.(calibration_child) /. k,
      float_of_int (total_ns.(calibration_parent) - child_ns.(calibration_parent)) /. k,
      total_words.(calibration_child) /. k,
      (total_words.(calibration_parent) -. child_words.(calibration_parent)) /. k )
  in
  let rounds = List.init 7 (fun _ -> round ()) in
  reset ();
  let pick f = median (List.map f rounds) in
  {
    inside_ns = pick (fun (a, _, _, _) -> a);
    outside_ns = pick (fun (_, b, _, _) -> b);
    inside_words = pick (fun (_, _, c, _) -> c);
    outside_words = pick (fun (_, _, _, d) -> d);
  }

(* Self time and words of span [id] with the calibrated span cost removed:
   its own enclosed share, and the outside share of each direct child. *)
let self_ns cost id =
  float_of_int (total_ns.(id) - child_ns.(id))
  -. (float_of_int calls.(id) *. cost.inside_ns)
  -. (float_of_int child_calls.(id) *. cost.outside_ns)

let self_words cost id =
  total_words.(id) -. child_words.(id)
  -. (float_of_int calls.(id) *. cost.inside_words)
  -. (float_of_int child_calls.(id) *. cost.outside_words)

(* Total calibrated span cost over everything recorded since [reset]. *)
let overhead_ns cost =
  let opened = ref !root_children in
  for id = 0 to n - 1 do
    opened := !opened + child_calls.(id)
  done;
  let total_calls = Array.fold_left ( + ) 0 calls in
  (float_of_int total_calls *. cost.inside_ns) +. (float_of_int !opened *. cost.outside_ns)

(* Time inside [traced_ns] that no root-level span covered, minus the
   outside cost of the root-level spans themselves. *)
let unattributed_ns cost ~traced_ns =
  float_of_int (traced_ns - !root_ns) -. (float_of_int !root_children *. cost.outside_ns)
