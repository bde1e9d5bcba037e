type event = {
  mutable time : Sim_time.t;
  mutable seq : int;
  mutable action : unit -> unit;
  mutable cancelled : bool;
  mutable queued : bool; (* currently sitting in the queue *)
}

type handle = event

(* Pending events live in one array ordered by (time, seq), latest first:
   [queue.(size - 1)] fires next.  A host is a fixed handful of periodic
   timers (dispatch tick, accounting, governor window, sampling), so the
   queue stays a dozen entries deep and a re-armed 1 ms tick passes only
   the few events due before it on its way in.  Slots at and above [size]
   hold [hole], so fired events are not retained. *)
type t = {
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  mutable queue : event array;
  mutable size : int;
  mutable dead : int; (* cancelled events still occupying queue slots *)
  hole : event;
}

let inv_monotonic =
  Analysis.Invariant.register "sim.monotonic-time"
    ~doc:"the event queue never dispatches an event scheduled before the clock"

let create () =
  let hole = { time = Sim_time.zero; seq = -1; action = ignore; cancelled = true; queued = false } in
  { clock = Sim_time.zero; next_seq = 0; queue = Array.make 16 hole; size = 0; dead = 0; hole }

let now t = t.clock

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* alloc: cold *)
let[@inline never] grow t =
  let bigger = Array.make (2 * Array.length t.queue) t.hole in
  Array.blit t.queue 0 bigger 0 t.size;
  t.queue <- bigger

let due_before a b =
  let c = Sim_time.compare a.time b.time in
  c < 0 || (c = 0 && a.seq < b.seq)

(* Events due before [ev] shift one slot towards the end; a fresh [seq]
   puts [ev] behind everything already due at its instant (FIFO). *)
let rec insert q ev i =
  if i > 0 && due_before q.(i - 1) ev then begin
    q.(i) <- q.(i - 1);
    insert q ev (i - 1)
  end
  else q.(i) <- ev

(* alloc: none *)
let push t ev =
  if t.size = Array.length t.queue then grow t;
  insert t.queue ev t.size;
  t.size <- t.size + 1

(* The caller checks that the queue is non-empty. *)
(* alloc: none *)
let pop t =
  let i = t.size - 1 in
  let ev = t.queue.(i) in
  t.queue.(i) <- t.hole;
  t.size <- i;
  ev

let at t time action =
  if Sim_time.compare time t.clock < 0 then invalid_arg "Simulator.at: time is in the past";
  let ev = { time; seq = fresh_seq t; action; cancelled = false; queued = true } in
  push t ev;
  ev

let after t delay action = at t (Sim_time.add t.clock delay) action

let every t ?start period action =
  if Sim_time.equal period Sim_time.zero then invalid_arg "Simulator.every: zero period";
  let start = match start with Some s -> s | None -> Sim_time.add t.clock period in
  if Sim_time.compare start t.clock < 0 then invalid_arg "Simulator.every: start is in the past";
  let cell = { time = start; seq = fresh_seq t; action = ignore; cancelled = false; queued = true } in
  (* One record is re-armed for every firing so a single handle controls the
     whole periodic chain.  The closure is allocated once here; the re-arm
     itself only mutates the cell and re-pushes it. *)
  cell.action <-
    (fun () ->
      action ();
      if not cell.cancelled then begin
        cell.time <- Sim_time.add t.clock period;
        cell.seq <- fresh_seq t;
        cell.queued <- true;
        push t cell
      end);
  push t cell;
  cell

(* Drop the cancelled entries once they dominate, keeping the survivors in
   order; keeps [pending] exact and stops long-lived simulations from
   dragging a tail of dead events through every pop. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.queue.(i) in
    if ev.cancelled then ev.queued <- false
    else begin
      t.queue.(!kept) <- ev;
      incr kept
    end
  done;
  Array.fill t.queue !kept (t.size - !kept) t.hole;
  t.size <- !kept;
  t.dead <- 0

let cancel t handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    if handle.queued then begin
      t.dead <- t.dead + 1;
      if t.dead > 64 && 2 * t.dead > t.size then compact t
    end
  end

let pending t = t.size - t.dead

(* alloc: cold *)
let[@inline never] check_monotonic t ev =
  Analysis.Check.run inv_monotonic ~time_s:(Sim_time.to_sec t.clock) ~component:"simulator"
    ~detail:(fun () ->
      Printf.sprintf "event scheduled at %s popped with clock at %s" (* lint:ignore hot-path-printf: cold sanitizer failure message *)
        (Sim_time.to_string ev.time) (Sim_time.to_string t.clock))
    (Sim_time.compare ev.time t.clock >= 0)

let step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    ev.queued <- false;
    if ev.cancelled then begin
      t.dead <- t.dead - 1;
      true
    end
    else begin
      if Analysis.Config.enabled () then check_monotonic t ev;
      t.clock <- Sim_time.max t.clock ev.time;
      ev.action ();
      true
    end
  end

let run_until t t_end =
  while t.size > 0 && Sim_time.compare t.queue.(t.size - 1).time t_end <= 0 do
    ignore (step t)
  done;
  t.clock <- Sim_time.max t.clock t_end

let run t = while step t do () done
