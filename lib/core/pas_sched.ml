module Processor = Cpu_model.Processor
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler

let inv_conservation =
  Analysis.Invariant.register "pas.credit-conservation" ~equation:"Eq. 4"
    ~doc:
      "after an evaluation, the sum of capped effective credits is exactly the sum of \
       initial credits scaled by 1/(ratio*cf)"

let inv_freq_member =
  Analysis.Invariant.register "pas.freq-in-table" ~equation:"Listing 1.1"
    ~doc:"the processor frequency is always a level of its P-state table"

let inv_busy_fraction =
  Analysis.Invariant.register "pas.busy-fraction"
    ~doc:"utilization samples fed to the evaluation window fall in [0, 1]"

let inv_credit_bounds =
  Analysis.Invariant.register "pas.effective-credit-bounds" ~equation:"Eq. 4"
    ~doc:"every effective credit is finite and non-negative"

(* One capped domain's Listing 1.2 credit at one frequency level.  The
   domain field makes this a mixed record, so [credit] stays a box built
   once at [create] and handed to the Credit scheduler by pointer. *)
type rescale = { domain : Domain.t; credit : float }

(* The latest absolute load, in a flat one-float record: the window stores
   into it without boxing. *)
type load = { mutable absolute : float }

type t = {
  processor : Processor.t;
  credit : Sched_credit.t; (* the underlying Credit scheduler *)
  domains : Domain.t list;
  window : float array; (* ring of the last 3 utilization samples *)
  mutable filled : int;
  mutable next : int;
  mutable evaluations : int;
  mutable frequency_decisions : int;
  load : load;
  levels : Cpu_model.Frequency.mhz array; (* ascending *)
  capacity : float array; (* [Equations.capacity] of each level *)
  rescales : (rescale array, exn) result array;
      (* per level, every capped domain's [Equations.compensated_credit],
         or the [Invalid_speed] it raised *)
  mutable scheduler : Scheduler.t option;
}

(* Inlined, so the window gets the load unboxed. *)
let[@inline] global_load t =
  let n = max 1 t.filled in
  let sum = ref 0.0 in
  for i = 0 to t.filled - 1 do
    sum := !sum +. t.window.(i)
  done;
  !sum /. float_of_int n *. 100.0

(* Post-conditions of an evaluation, checkable at any quiescent point: the
   chosen frequency is a table level, and Listing 1.2 preserved absolute
   capacity — Σ effective = Σ initial / (ratio·cf) over the capped domains
   (Eq. 4 summed).  Public so tests can drive it against corrupted state. *)
(* alloc: cold *)
let[@inline never] check_invariants t ~now =
  if Analysis.Config.enabled () then begin
    let time_s = Sim_time.to_sec now in
    let table = Processor.freq_table t.processor in
    let freq = Processor.current_freq t.processor in
    Analysis.Check.run inv_freq_member ~time_s ~component:"pas"
      ~detail:(fun () ->
        Printf.sprintf "current frequency %d MHz is not a table level" (* lint:ignore hot-path-printf: lazy detail built only on failure *)
          freq)
      (Cpu_model.Frequency.mem table freq);
    if Cpu_model.Frequency.mem table freq then begin
      let ratio = Processor.ratio t.processor and cf = Processor.cf t.processor in
      let sum_initial = ref 0.0 and sum_effective = ref 0.0 in
      List.iter
        (fun d ->
          let initial = Domain.initial_credit d in
          if initial > 0.0 then begin
            let eff = Sched_credit.effective_credit t.credit d in
            Analysis.Check.run inv_credit_bounds ~time_s ~component:"pas"
              ~detail:(fun () ->
                Printf.sprintf "domain %s effective credit %.9g" (* lint:ignore hot-path-printf: lazy detail built only on failure *)
                  (Domain.name d) eff)
              (Float.is_finite eff && eff >= 0.0);
            sum_initial := !sum_initial +. initial;
            sum_effective := !sum_effective +. eff
          end)
        t.domains;
      let expected = !sum_initial /. (ratio *. cf) in
      Analysis.Check.run inv_conservation ~time_s ~component:"pas"
        ~detail:(fun () ->
          Printf.sprintf (* lint:ignore hot-path-printf: lazy detail built only on failure *)
            "sum of effective credits %.9g, expected %.9g (= %.9g / (%.6g * %.6g))"
            !sum_effective expected !sum_initial ratio cf)
        (Float.abs (!sum_effective -. expected) <= 1e-9 *. Float.max 1.0 expected)
    end
  end

(* alloc: cold *)
let[@inline never] check_busy_fraction ~now busy_fraction =
  Analysis.Check.within inv_busy_fraction ~time_s:(Sim_time.to_sec now) ~component:"pas"
    ~what:"busy_fraction" ~lo:0.0 ~hi:1.0 busy_fraction

(* One PAS evaluation: Listing 1.1 then Listing 1.2, reading the tables
   [create] built with the same expressions, so every value is
   bit-identical to evaluating the equations here. *)
(* alloc: none *)
let evaluate t ~now ~busy_fraction =
  if Analysis.Config.enabled () then check_busy_fraction ~now busy_fraction;
  t.window.(t.next) <- busy_fraction;
  t.next <- (t.next + 1) mod Array.length t.window;
  if t.filled < Array.length t.window then t.filled <- t.filled + 1;
  t.evaluations <- t.evaluations + 1;
  let absolute_load =
    Equations.absolute_load ~global_load:(global_load t) ~ratio:(Processor.ratio t.processor)
      ~cf:(Processor.cf t.processor)
  in
  t.load.absolute <- absolute_load;
  (* Listing 1.1: the lowest level that absorbs the load, else the top. *)
  let top = Array.length t.levels - 1 in
  let i = ref 0 in
  while !i < top && not (t.capacity.(!i) > absolute_load) do
    incr i
  done;
  let new_freq = t.levels.(!i) in
  (* Listing 1.2 *)
  (match t.rescales.(!i) with
  | Ok rescales ->
      for k = 0 to Array.length rescales - 1 do
        let r = rescales.(k) in
        Sched_credit.set_effective_credit t.credit r.domain r.credit
      done
  | Error e -> raise e);
  if new_freq <> Processor.current_freq t.processor then
    t.frequency_decisions <- t.frequency_decisions + 1;
  Processor.set_freq t.processor ~now new_freq;
  check_invariants t ~now

let rescales_at table calibration capped freq =
  let ratio = Cpu_model.Frequency.ratio table freq in
  let cf = Cpu_model.Calibration.cf calibration table freq in
  match
    Array.map
      (fun d ->
        let initial = Domain.initial_credit d in
        { domain = d; credit = Equations.compensated_credit ~initial ~ratio ~cf })
      capped
  with
  | rescales -> Ok rescales
  | exception (Equations.Invalid_speed _ as e) -> Error e

let create ?(window = Sim_time.of_ms 100) ?(account_period = Sim_time.of_ms 30) ~processor
    domains =
  let credit = Sched_credit.make ~account_period domains in
  let table = Processor.freq_table processor in
  let calibration = (Processor.arch processor).Cpu_model.Arch.calibration in
  let levels = Cpu_model.Frequency.levels table in
  let capped =
    Array.of_list (List.filter (fun d -> Domain.initial_credit d > 0.0) domains)
  in
  let t =
    {
      processor;
      credit;
      domains;
      window = Array.make 3 0.0;
      filled = 0;
      next = 0;
      evaluations = 0;
      frequency_decisions = 0;
      load = { absolute = 0.0 };
      levels;
      capacity = Array.map (Equations.capacity table calibration) levels;
      rescales = Array.map (rescales_at table calibration capped) levels;
      scheduler = None;
    }
  in
  let c = Sched_credit.scheduler credit in
  let sched =
    Scheduler.make ~name:"pas" ~domains:c.Scheduler.domains ~pick:c.Scheduler.pick
      ~charge:c.Scheduler.charge ~on_account_period:c.Scheduler.on_account_period
      ~set_effective_credit:c.Scheduler.set_effective_credit
      ~effective_credit:c.Scheduler.effective_credit
      ~observe_window:(fun ~now ~busy_fraction -> evaluate t ~now ~busy_fraction)
      ~window_period:window ()
  in
  t.scheduler <- Some sched;
  t

(* unreachable: [create] installs the scheduler before returning. *)
let scheduler t = match t.scheduler with Some s -> s | None -> assert false
let evaluations t = t.evaluations
let frequency_decisions t = t.frequency_decisions
let last_absolute_load t = t.load.absolute
let effective_credit t d = Sched_credit.effective_credit t.credit d
