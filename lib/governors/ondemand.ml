module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

type t = {
  processor : Processor.t;
  up_threshold : float;
  levels : Frequency.mhz array; (* ascending *)
  thresholds : float array; (* [speed_at level *. up_threshold], per level *)
  fmax : Frequency.mhz;
  floor : Frequency.mhz; (* lowest level the choice may take *)
}

(* One window's decision: jump to the maximum above the threshold, else the
   lowest frequency whose delivered speed keeps the absolute load under the
   threshold (the maximum if none does), clamped to the floor.  The
   per-level thresholds are precomputed, so the scan is a loop over flat
   arrays. *)
(* alloc: none *)
let observe t ~now ~busy_fraction =
  let target =
    if busy_fraction >= t.up_threshold then t.fmax
    else begin
      (* Convert the windowed utilization into an absolute load before
         choosing the target level, like cpufreq's frequency-invariant
         load tracking. *)
      let absolute_load = busy_fraction *. Processor.speed t.processor in
      let i = ref 0 in
      while !i < Array.length t.thresholds && not (t.thresholds.(!i) >= absolute_load) do
        incr i
      done;
      let chosen = if !i < Array.length t.levels then t.levels.(!i) else t.fmax in
      if chosen < t.floor then t.floor else chosen
    end
  in
  Processor.set_freq t.processor ~now target;
  Governor.check_freq ~name:"ondemand" t.processor ~now

let create ?(period = Sim_time.of_ms 5) ?(up_threshold = 0.8) ?floor processor =
  if not (up_threshold > 0.0 && up_threshold <= 1.0) then
    invalid_arg "Ondemand.create: up_threshold out of (0, 1]";
  let table = Processor.freq_table processor in
  let levels = Frequency.levels table in
  let t =
    {
      processor;
      up_threshold;
      levels;
      thresholds = Array.map (fun f -> Processor.speed_at processor f *. up_threshold) levels;
      fmax = Frequency.max_freq table;
      floor =
        (match floor with
        | None -> Frequency.min_freq table
        | Some fl -> Frequency.closest table fl);
    }
  in
  Governor.make ~name:"ondemand" ~period ~observe:(observe t)
