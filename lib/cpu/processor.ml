(* The performance law evaluated once per P-state at creation.  [level] is
   an int, so this is a mixed record and its floats are boxes shared for
   the processor's life: a frequency change switches [state] to another
   precomputed record, and the dispatch hot path reads [speed] by pointer,
   so neither boxes a float. *)
type pstate = { level : Frequency.mhz; ratio : float; cf : float; speed : float }

type t = {
  arch : Arch.t;
  cpufreq : Cpufreq.t;
  meter : Power.Meter.t;
  states : pstate array; (* indexed like the ascending level table *)
  mutable state : pstate; (* [states.(index_of current_freq)] *)
}

let pstate_of arch f =
  let table = arch.Arch.freq_table in
  let ratio = Frequency.ratio table f and cf = Calibration.cf arch.Arch.calibration table f in
  { level = f; ratio; cf; speed = ratio *. cf }

let freq_table t = t.arch.Arch.freq_table
let current_freq t = Cpufreq.current t.cpufreq
let speed_at t f = (pstate_of t.arch f).speed

let create ?init_freq arch =
  let table = arch.Arch.freq_table in
  let init = match init_freq with Some f -> f | None -> Frequency.max_freq table in
  let cpufreq = Cpufreq.create ~freq_table:table ~init in
  let states = Array.map (pstate_of arch) (Frequency.levels table) in
  {
    arch;
    cpufreq;
    meter = Power.Meter.create (Power.of_arch arch) table;
    states;
    state = states.(Frequency.index_of table (Cpufreq.current cpufreq));
  }

let arch t = t.arch
let cpufreq t = t.cpufreq

(* [Cpufreq.set] clamps the request to the table, so the state must follow
   the read-back frequency, never the argument. *)
let set_freq t ~now f =
  Cpufreq.set t.cpufreq ~now f;
  t.state <- t.states.(Frequency.index_of (freq_table t) (current_freq t))

let ratio t = t.state.ratio
let cf t = t.state.cf
let speed t = t.state.speed
let work_in t dt = speed t *. Sim_time.to_sec dt

let record_power t ~dt ~util =
  Power.Meter.record t.meter ~dt ~freq:(current_freq t) ~util

let record_busy t ~dt ~busy =
  Power.Meter.record_busy t.meter ~dt ~busy ~freq:(current_freq t)

let energy_joules t = Power.Meter.joules t.meter
let mean_watts t = Power.Meter.mean_watts t.meter
