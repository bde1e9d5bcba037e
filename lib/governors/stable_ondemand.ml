module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

type t = {
  processor : Processor.t;
  table : Frequency.table;
  stability : int;
  levels : Frequency.mhz array; (* ascending *)
  thresholds : float array; (* [speed_at level *. up_threshold], per level *)
  fmax : Frequency.mhz;
  window : float array; (* ring of the last [n] utilization samples *)
  mutable filled : int;
  mutable next : int;
  mutable agreement : int; (* consecutive evaluations requesting [wanted] *)
  mutable wanted : Frequency.mhz;
}

(* One window's decision.  The mean utilization and the level scan are
   written inline over flat arrays (no float crosses a call), so a window
   allocates nothing. *)
(* alloc: none *)
let observe t ~now ~busy_fraction =
  t.window.(t.next) <- busy_fraction;
  t.next <- (t.next + 1) mod Array.length t.window;
  if t.filled < Array.length t.window then t.filled <- t.filled + 1;
  let sum = ref 0.0 in
  for i = 0 to t.filled - 1 do
    sum := !sum +. t.window.(i)
  done;
  let mean_util = !sum /. float_of_int (max 1 t.filled) in
  let absolute_load = mean_util *. Processor.speed t.processor in
  (* Lowest level that keeps the load under the threshold; the maximum if
     none does. *)
  let i = ref 0 in
  while !i < Array.length t.thresholds && not (t.thresholds.(!i) >= absolute_load) do
    incr i
  done;
  let desired = if !i < Array.length t.levels then t.levels.(!i) else t.fmax in
  let current = Processor.current_freq t.processor in
  if desired = current then begin
    t.agreement <- 0;
    t.wanted <- current
  end
  else begin
    if desired = t.wanted then t.agreement <- t.agreement + 1
    else begin
      t.wanted <- desired;
      t.agreement <- 1
    end;
    if t.agreement >= t.stability then begin
      let step =
        if desired > current then Frequency.next_up t.table current
        else Frequency.next_down t.table current
      in
      Processor.set_freq t.processor ~now step;
      t.agreement <- 0
    end
  end;
  Governor.check_freq ~name:"stable-ondemand" t.processor ~now

let create ?(period = Sim_time.of_ms 100) ?(up_threshold = 0.8) ?(stability = 3) processor =
  if not (up_threshold > 0.0 && up_threshold <= 1.0) then
    invalid_arg "Stable_ondemand.create: up_threshold out of (0, 1]";
  if stability < 1 then invalid_arg "Stable_ondemand.create: stability must be >= 1";
  let table = Processor.freq_table processor in
  let levels = Frequency.levels table in
  let t =
    {
      processor;
      table;
      stability;
      levels;
      thresholds = Array.map (fun f -> Processor.speed_at processor f *. up_threshold) levels;
      fmax = Frequency.max_freq table;
      window = Array.make 3 0.0;
      filled = 0;
      next = 0;
      agreement = 0;
      wanted = Processor.current_freq processor;
    }
  in
  Governor.make ~name:"stable-ondemand" ~period ~observe:(observe t)
