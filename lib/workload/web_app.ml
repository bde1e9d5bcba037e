(* The request queue is strict FIFO (expiry and completion both leave from
   the head), so it needs no pool or free-slot stack: one power-of-two ring
   of parallel arrays — arrival instants as ints, remaining work as a flat
   float array — with monotonic [head]/[tail] cursors.  The per-tick paths
   ([advance], [execute]) move ints and raw floats only and allocate
   nothing; allocation is confined to the O(log n) ring doublings and to
   Poisson arrivals, which draw from the boxed-state Prng. *)

type arrival = Deterministic | Poisson of Prng.t

(* All-float sub-record: stores into it are raw float moves, so the per-tick
   counters and the [execute] temporaries never box, and [expected] hands
   the arrival count's mean to the cold Poisson path without boxing an
   argument. *)
type acc = {
  mutable carry : float; (* fractional request accumulation (deterministic) *)
  mutable injected_work : float;
  mutable completed_work : float;
  mutable expected : float; (* mean arrivals this tick, for [inject_poisson] *)
  mutable budget : float; (* [execute]: work still offered this slice *)
  mutable used : float; (* [execute]: work done this slice *)
}

type t = {
  request_work : float;
  arrival : arrival;
  timeout : Sim_time.t option;
  times : Sim_time.t array; (* rate schedule: step instants, ascending *)
  rates : float array; (* rate schedule: rate from [times.(i)] on *)
  mutable arrived : Sim_time.t array; (* ring: arrival instant *)
  mutable remaining : float array; (* ring: absolute work still to serve *)
  mutable head : int; (* monotonic cursors; slot = cursor land (cap - 1) *)
  mutable tail : int;
  acc : acc;
  mutable injected : int;
  mutable completed : int;
  mutable timed_out : int;
  response : Stats.Running.t;
}

let ring_init = 16

let validate_schedule schedule =
  let rec check = function
    | [] | [ _ ] -> ()
    | (t0, _) :: ((t1, _) :: _ as rest) ->
        if Sim_time.compare t0 t1 >= 0 then
          invalid_arg "Web_app.create: schedule must be sorted strictly by time";
        check rest
  in
  check schedule;
  List.iter
    (fun (_, r) -> if r < 0.0 then invalid_arg "Web_app.create: negative rate")
    schedule

let create ?(request_work = 0.005) ?(arrival = Deterministic) ?timeout ~rate_schedule () =
  if not (request_work > 0.0) then invalid_arg "Web_app.create: request_work must be positive";
  (match timeout with
  | Some d when Sim_time.equal d Sim_time.zero -> invalid_arg "Web_app.create: zero timeout"
  | Some _ | None -> ());
  validate_schedule rate_schedule;
  {
    request_work;
    arrival;
    timeout;
    times = Array.of_list (List.map fst rate_schedule);
    rates = Array.of_list (List.map snd rate_schedule);
    arrived = Array.make ring_init Sim_time.zero;
    remaining = Array.make ring_init 0.0;
    head = 0;
    tail = 0;
    acc =
      {
        carry = 0.0;
        injected_work = 0.0;
        completed_work = 0.0;
        expected = 0.0;
        budget = 0.0;
        used = 0.0;
      };
    injected = 0;
    completed = 0;
    timed_out = 0;
    response = Stats.Running.create ();
  }

(* Index of the schedule step in force at [now]; -1 before the first. *)
let step_at t ~now =
  let i = ref (-1) in
  for k = 0 to Array.length t.times - 1 do
    if Sim_time.compare t.times.(k) now <= 0 then i := k
  done;
  !i

let current_rate t ~now =
  let i = step_at t ~now in
  if i < 0 then 0.0 else t.rates.(i)

(* Ring doubling runs O(log n) times over the queue's life; the
   steady-state enqueue pays only the occupancy test. *)
(* alloc: cold *)
let[@inline never] grow t =
  let cap = Array.length t.arrived in
  let narrived = Array.make (cap * 2) Sim_time.zero in
  let nremaining = Array.make (cap * 2) 0.0 in
  for i = 0 to cap - 1 do
    let slot = (t.head + i) land (cap - 1) in
    narrived.(i) <- t.arrived.(slot);
    nremaining.(i) <- t.remaining.(slot)
  done;
  t.arrived <- narrived;
  t.remaining <- nremaining;
  t.head <- 0;
  t.tail <- cap

let inject t ~now n =
  for _ = 1 to n do
    if t.tail - t.head = Array.length t.arrived then grow t;
    let slot = t.tail land (Array.length t.arrived - 1) in
    t.arrived.(slot) <- now;
    t.remaining.(slot) <- t.request_work;
    t.tail <- t.tail + 1;
    t.injected <- t.injected + 1;
    t.acc.injected_work <- t.acc.injected_work +. t.request_work
  done

(* Poisson draws go through the boxed-state Prng, which allocates per draw
   by construction; the deterministic arrivals the figures use never come
   here. *)
(* alloc: cold *)
let[@inline never] inject_poisson t rng ~now =
  inject t ~now (Prng.poisson rng ~mean:t.acc.expected)

(* Drop queued requests older than the timeout (httperf clients give up);
   the head of the queue may be in service, but a real client's abandonment
   aborts the request wherever it is. *)
let expire t ~now =
  match t.timeout with
  | None -> ()
  | Some limit ->
      let continue = ref true in
      while t.tail - t.head > 0 && !continue do
        let arrived = t.arrived.(t.head land (Array.length t.arrived - 1)) in
        if Sim_time.compare (Sim_time.diff now arrived) limit > 0 then begin
          t.head <- t.head + 1;
          t.timed_out <- t.timed_out + 1
        end
        else continue := false
      done

(* alloc: none *)
let advance t ~now ~dt =
  expire t ~now;
  let i = step_at t ~now in
  if i >= 0 && t.rates.(i) > 0.0 then begin
    let expected = t.rates.(i) *. Sim_time.to_sec dt /. t.request_work in
    match t.arrival with
    | Deterministic ->
        t.acc.carry <- t.acc.carry +. expected;
        let n = int_of_float t.acc.carry in
        t.acc.carry <- t.acc.carry -. float_of_int n;
        inject t ~now n
    | Poisson rng ->
        t.acc.expected <- expected;
        inject_poisson t rng ~now
  end

let has_work t () = t.tail - t.head > 0

(* FIFO service of the offered slice: the head stays queued while in
   service. *)
(* alloc: none *)
let execute t ~now ~cpu_time ~speed =
  let a = t.acc in
  a.budget <- Sim_time.to_sec cpu_time *. speed;
  a.used <- 0.0;
  let continue = ref true in
  while !continue && t.tail - t.head > 0 do
    let slot = t.head land (Array.length t.arrived - 1) in
    let remaining = t.remaining.(slot) in
    if remaining <= a.budget then begin
      a.budget <- a.budget -. remaining;
      a.used <- a.used +. remaining;
      t.head <- t.head + 1;
      t.completed <- t.completed + 1;
      a.completed_work <- a.completed_work +. t.request_work;
      Stats.Running.add t.response (Sim_time.to_sec now -. Sim_time.to_sec t.arrived.(slot))
    end
    else begin
      t.remaining.(slot) <- remaining -. a.budget;
      a.used <- a.used +. a.budget;
      a.budget <- 0.0;
      continue := false
    end
  done;
  Sim_time.min cpu_time (Sim_time.of_sec_f (a.used /. speed))

let workload t =
  Workload.make ~name:"web-app" ~advance:(fun ~now ~dt -> advance t ~now ~dt)
    ~has_work:(has_work t)
    ~execute:(fun ~now ~cpu_time ~speed -> execute t ~now ~cpu_time ~speed)
    ()

let queue_length t = t.tail - t.head

let queued_work t =
  let sum = ref 0.0 in
  for c = t.head to t.tail - 1 do
    sum := !sum +. t.remaining.(c land (Array.length t.remaining - 1))
  done;
  !sum

let injected_requests t = t.injected
let completed_requests t = t.completed
let injected_work t = t.acc.injected_work
let completed_work t = t.acc.completed_work
let response_times t = t.response

let timed_out_requests t = t.timed_out
