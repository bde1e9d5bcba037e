(* Per-subsystem microbenchmarks with an allocation meter, plus the
   manifest regression gate.

   [micro run] measures each hot path in a tight loop and reports ns/op and
   words/op (exact GC word counts, see [allocated_words]).  The
   dispatch-tick and sample-tick paths are engineered to allocate nothing
   in steady state; [--check] turns that property into an exit code so CI
   can gate on it.

   [micro compare OLD.json NEW.json] diffs two [BENCH_*.json] manifests
   (schema /1 or /2) through {!Runner.Manifest} and exits non-zero when any
   per-experiment or total metric regressed beyond the tolerance.

   Measurements are wall-clock and machine-dependent; only the words/op
   figures (and the compare gate's generous tolerance) are meant to be
   stable across hosts. *)

module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Host = Hypervisor.Host
module Smp_host = Hypervisor.Smp_host
module Processor = Cpu_model.Processor
module Sim_time = Sim_engine.Sim_time
module Simulator = Sim_engine.Simulator
module Series = Sim_engine.Series
module Open_loop = Workloads.Open_loop
module Web_app = Workloads.Web_app
module Pi_app = Workloads.Pi_app
module Governor = Governors.Governor

type result = { name : string; ops : int; ns_per_op : float; words_per_op : float }

(* Words allocated so far, counted exactly.  [Gc.allocated_bytes] will not
   do: on OCaml 5.1 it adds the minor allocation since the last minor
   collection in words rather than bytes, so a loop that triggers no
   collection reads an eighth of its words.  [Gc.quick_stat]'s counters
   are exact once a minor collection has emptied the young heap and a
   major slice has folded in the direct major-heap allocations, which a
   full major cycle guarantees; it runs outside the timed loop. *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Warm up, optionally reset (drop warm-up samples while keeping grown
   storage), then measure a tight loop.  The timer is read inside the
   allocation window, so the collections that bound the window are not
   billed as time; the meter's own constant overhead (a few dozen words)
   is amortised over [ops]. *)
let measure ~name ~ops ?(warmup = 0) ?reset f =
  for _ = 1 to warmup do
    f ()
  done;
  (match reset with Some r -> r () | None -> ());
  let a0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let a1 = allocated_words () in
  {
    name;
    ops;
    ns_per_op = (t1 -. t0) *. 1e9 /. float_of_int ops;
    words_per_op = (a1 -. a0) /. float_of_int ops;
  }

(* ------------------------------------------------------------------ *)
(* Fixtures *)

(* Uncapped (credit 0) domains stay eligible without the 30 ms accounting
   refill, so a bench driving [dispatch_tick] directly — outside the event
   queue, where on_account_period never fires — keeps dispatching real work
   on every measured tick instead of decaying to idle picks. *)
let busy_domains () =
  [
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:0.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"a" ~credit_pct:0.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"b" ~credit_pct:0.0 (Workloads.Workload.busy_loop ());
  ]

let contended_domains () =
  [
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"a" ~credit_pct:20.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"b" ~credit_pct:70.0 (Workloads.Workload.busy_loop ());
  ]

let bench_queue_push_pop () =
  measure ~name:"queue/push-pop-1k" ~ops:300 ~warmup:20 (fun () ->
      let sim = Simulator.create () in
      for i = 0 to 999 do
        ignore (Simulator.at sim (Sim_time.of_us ((i * 7919) mod 65536)) (fun () -> ()))
      done;
      Simulator.run sim)

let bench_queue_cancel_compact () =
  let handles = Array.make 1000 None in
  measure ~name:"queue/cancel-compact-1k" ~ops:300 ~warmup:20 (fun () ->
      let sim = Simulator.create () in
      for i = 0 to 999 do
        handles.(i) <-
          Some (Simulator.at sim (Sim_time.of_us ((i * 7919) mod 65536)) (fun () -> ()))
      done;
      (* Cancel 70% — enough to trip the cancelled>live compaction. *)
      for i = 0 to 999 do
        if i mod 10 < 7 then
          match handles.(i) with Some h -> Simulator.cancel sim h | None -> ()
      done;
      Simulator.run sim)

(* A host's own timer mix — dispatch tick, Credit accounting, a governor
   window and metric sampling — one event per op: each op pops the earliest
   event and its re-arm pushes it back behind whatever is due first. *)
let bench_every_steady () =
  let sim = Simulator.create () in
  List.iter
    (fun ms -> ignore (Simulator.every sim (Sim_time.of_ms ms) ignore))
    [ 1; 30; 100; 1000 ];
  measure ~name:"sim/every-steady" ~ops:200_000 ~warmup:1_000 (fun () ->
      ignore (Simulator.step sim))

let make_host domains =
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create domains in
  Host.create ~sim ~processor ~scheduler ()

let bench_dispatch_tick () =
  let host = make_host (busy_domains ()) in
  measure ~name:"host/dispatch-tick" ~ops:100_000 ~warmup:1_000 (fun () ->
      Host.Internal.dispatch_tick host ())

(* Capped domains with the 30 ms accounting refill folded in — the cadence
   a simulated host actually runs. *)
let bench_dispatch_tick_capped () =
  let host = make_host (contended_domains ()) in
  let scheduler = Host.scheduler host in
  let ticks = ref 0 in
  measure ~name:"host/dispatch-tick-capped" ~ops:100_000 ~warmup:1_000 (fun () ->
      incr ticks;
      if !ticks mod 30 = 0 then
        scheduler.Scheduler.on_account_period ~now:(Host.now host);
      Host.Internal.dispatch_tick host ())

(* A host stepped through its own event queue, one simulated millisecond
   per op: dispatch ticks, the accounting refill and the workloads' own
   advance/execute all run.  Sampling is pushed past the measured window
   (it appends to growing series, which the sample-tick bench covers). *)
let host_run ~name domains =
  let config = { Host.default_config with Host.sample_period = Sim_time.of_sec 100_000 } in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~config ~sim ~processor ~scheduler:(Sched_credit.create domains) () in
  let ms = Sim_time.of_ms 1 in
  (* The warm-up outlives the 10 s request timeout, so every request ring
     has reached its steady capacity before measuring. *)
  measure ~name ~ops:100_000 ~warmup:20_000 (fun () -> Host.run_for host ms)

(* The paper's Scenario 1/2 host: Dom0/V20/V70 web servers at exact load,
   so requests really arrive, queue, complete and time out. *)
let bench_dispatch_tick_webapp () =
  let web credit =
    let rate = Workloads.Phases.exact_rate ~credit_pct:credit in
    Web_app.create ~timeout:(Sim_time.of_sec 10)
      ~rate_schedule:(Workloads.Phases.constant ~rate) ()
  in
  let dom0 = Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.01) () in
  host_run ~name:"host/dispatch-tick-webapp"
    [
      Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (Web_app.workload dom0);
      Domain.create ~name:"V20" ~credit_pct:20.0 (Web_app.workload (web 20.0));
      Domain.create ~name:"V70" ~credit_pct:70.0 (Web_app.workload (web 70.0));
    ]

(* Table 2's batch jobs: π-apps far too long to finish while measured, one
   of them on a duty cycle so its demand tokens run dry mid-period. *)
let bench_dispatch_tick_piapp () =
  let pi ?duty_cycle () = Pi_app.workload (Pi_app.create ?duty_cycle ~work:1e9 ()) in
  host_run ~name:"host/dispatch-tick-piapp"
    [
      Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (Workloads.Workload.idle ());
      Domain.create ~name:"V20" ~credit_pct:20.0 (pi ~duty_cycle:0.5 ());
      Domain.create ~name:"V70" ~credit_pct:70.0 (pi ());
    ]

(* One governor window per op, cycling through busy fractions that move the
   frequency up, down and (mostly) nowhere.  Each fraction sits in a ref,
   i.e. already boxed, as the host's window probe hands it over. *)
let bench_governor ~name create =
  let gov = create (Processor.create Cpu_model.Arch.optiplex_755) in
  let windows =
    Array.map ref [| 0.95; 0.95; 0.45; 0.45; 0.45; 0.45; 0.2; 0.2; 0.2; 0.2; 0.2; 0.7 |]
  in
  let i = ref 0 and now = ref Sim_time.zero in
  measure ~name ~ops:100_000 ~warmup:1_000 (fun () ->
      now := Sim_time.add !now gov.Governor.period;
      gov.Governor.observe ~now:!now ~busy_fraction:!(windows.(!i));
      i := (!i + 1) mod Array.length windows)

(* One PAS window per op (Listing 1.1 then Listing 1.2 for three capped
   domains), through the scheduler's [observe_window] as the host calls it,
   over the same frequency-moving cycle as the governor benches. *)
let bench_pas_evaluate () =
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let pas = Pas.Pas_sched.create ~processor (contended_domains ()) in
  let scheduler = Pas.Pas_sched.scheduler pas in
  let observe = Option.get scheduler.Scheduler.observe_window in
  let windows =
    Array.map ref [| 0.95; 0.95; 0.45; 0.45; 0.45; 0.45; 0.2; 0.2; 0.2; 0.2; 0.2; 0.7 |]
  in
  let i = ref 0 and now = ref Sim_time.zero in
  measure ~name:"pas/evaluate" ~ops:100_000 ~warmup:1_000 (fun () ->
      now := Sim_time.add !now scheduler.Scheduler.window_period;
      observe ~now:!now ~busy_fraction:!(windows.(!i));
      i := (!i + 1) mod Array.length windows)

let bench_sample_tick () =
  let host = make_host (busy_domains ()) in
  let ops = 100_000 in
  (* The warm-up grows every series vector to [ops] capacity; the reset
     empties them without shrinking, so the measured loop appends into
     existing storage and the steady-state sampling path shows through. *)
  measure ~name:"host/sample-tick" ~ops ~warmup:ops
    ~reset:(fun () -> Host.Internal.reset_series host)
    (fun () -> Host.Internal.sample host ())

let bench_smp_dispatch_tick () =
  let sim = Simulator.create () in
  let smp = Cpu_model.Smp.create ~cores:2 Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create ~host_capacity:2 (busy_domains ()) in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  measure ~name:"smp/dispatch-tick" ~ops:100_000 ~warmup:1_000 (fun () ->
      Smp_host.Internal.dispatch_tick host ())

let bench_smp_sample_tick () =
  let sim = Simulator.create () in
  let smp = Cpu_model.Smp.create ~cores:2 Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create ~host_capacity:2 (busy_domains ()) in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  let ops = 100_000 in
  measure ~name:"smp/sample-tick" ~ops ~warmup:ops
    ~reset:(fun () -> Smp_host.Internal.reset_series host)
    (fun () -> Smp_host.Internal.sample host ())

(* The meter's own sensitivity: 5 words every 100th op is 0.05 words/op,
   five times the zero-alloc limit.  [--check] fails unless this bench is
   caught, so a meter gone blind to small allocations cannot pass the
   gate. *)
let meter_probe = "meter/alloc-0.05"

let bench_meter_probe () =
  let i = ref 0 in
  measure ~name:meter_probe ~ops:100_000 ~warmup:1_000 (fun () ->
      incr i;
      if !i mod 100 = 0 then ignore (Sys.opaque_identity (Array.make 4 0)))

let bench_series_add () =
  let s = Series.create ~name:"bench" in
  let i = ref 0 in
  let ops = 100_000 in
  measure ~name:"series/add" ~ops ~warmup:ops
    ~reset:(fun () ->
      Series.reset s;
      i := 0)
    (fun () ->
      Series.add s (Sim_time.of_us !i) (float_of_int !i);
      incr i)

(* Drain mode: a primed backlog is served with [now] frozen, so the
   measured loop never enters arrival injection — the one stage allowed to
   allocate (it draws from the boxed-state Prng) — and words/op isolates
   the pool/ring service path. *)
let bench_openloop_step () =
  let station =
    Open_loop.create ~seed:7 ~servers:2 ~rate:100.0 ~service_mean:100.0 ()
  in
  let now = Sim_time.of_sec 100 in
  let dt = Sim_time.of_ms 1 in
  (* One long prime injects ~10k requests of 100 absolute seconds each —
     backlog for far more service than the measured loop performs. *)
  Open_loop.step station ~now ~dt:(Sim_time.of_us 1) ~speed:1.0;
  measure ~name:"openloop/step" ~ops:100_000 ~warmup:1_000
    ~reset:(fun () -> Open_loop.reset_stats station)
    (fun () -> Open_loop.step station ~now ~dt ~speed:1.0)

let bench_credit_pick () =
  let scheduler = Sched_credit.create (busy_domains ()) in
  let exclude = Scheduler.Mask.create () in
  let now = Sim_time.zero and remaining = Sim_time.of_ms 1 in
  measure ~name:"credit/pick" ~ops:100_000 ~warmup:1_000 (fun () ->
      ignore (scheduler.Scheduler.pick ~now ~remaining ~exclude))

let bench_credit_charge () =
  let domains = contended_domains () in
  let scheduler = Sched_credit.create ~host_capacity:4 domains in
  let domain = List.nth domains 1 in
  let now = Sim_time.zero and used = Sim_time.of_us 10 in
  measure ~name:"credit/charge" ~ops:100_000 ~warmup:1_000 (fun () ->
      scheduler.Scheduler.charge ~domain ~now ~used)

let bench_frame_csv () =
  let frame = Series.Frame.create () in
  for j = 0 to 3 do
    let s = Series.create ~name:(Printf.sprintf "s%d" j) in
    for i = 0 to 511 do
      Series.add s (Sim_time.of_us ((i * 1000) + (j * 250))) (float_of_int ((i * 13) + j))
    done;
    Series.Frame.add_series frame s
  done;
  measure ~name:"series/frame-csv-4x512" ~ops:300 ~warmup:20 (fun () ->
      ignore (Series.Frame.to_csv frame))

let all_benches =
  [
    bench_queue_push_pop;
    bench_queue_cancel_compact;
    bench_every_steady;
    bench_dispatch_tick;
    bench_dispatch_tick_capped;
    bench_dispatch_tick_webapp;
    bench_dispatch_tick_piapp;
    (fun () -> bench_governor ~name:"governor/ondemand" Governors.Ondemand.create);
    (fun () ->
      bench_governor ~name:"governor/stable-ondemand" Governors.Stable_ondemand.create);
    bench_pas_evaluate;
    bench_sample_tick;
    bench_smp_dispatch_tick;
    bench_smp_sample_tick;
    bench_series_add;
    bench_openloop_step;
    bench_credit_pick;
    bench_credit_charge;
    bench_frame_csv;
    bench_meter_probe;
  ]

(* Paths whose steady state must not allocate, each tied to the statically
   annotated hot root it exercises (the key [analyze_main --alloc-roots]
   prints).  The consistency test diffs the two sides: a root without a
   measuring bench and a bench without a proving root both fail, so the
   static prover and this dynamic meter can never drift apart.  words/op
   below the epsilon is measurement noise (the meter's own constant boxes
   amortised over the op count), not a per-op allocation. *)
let zero_alloc_roots =
  [
    ("host/dispatch-tick", "Host.dispatch_tick");
    ("host/dispatch-tick-capped", "Sched_credit.on_account_period");
    ("host/dispatch-tick-webapp", "Web_app.advance");
    ("host/dispatch-tick-webapp", "Web_app.execute");
    ("host/dispatch-tick-piapp", "Pi_app.advance");
    ("host/dispatch-tick-piapp", "Pi_app.execute");
    ("governor/ondemand", "Ondemand.observe");
    ("governor/stable-ondemand", "Stable_ondemand.observe");
    ("pas/evaluate", "Pas_sched.evaluate");
    ("host/sample-tick", "Host.sample");
    ("smp/dispatch-tick", "Smp_host.dispatch_tick");
    ("smp/sample-tick", "Smp_host.sample");
    ("sim/every-steady", "Simulator.push");
    ("sim/every-steady", "Simulator.pop");
    ("series/add", "Series.add");
    ("openloop/step", "Open_loop.step");
    ("credit/pick", "Sched_credit.pick");
    ("credit/charge", "Sched_credit.charge");
  ]

let zero_alloc_names = List.sort_uniq String.compare (List.map fst zero_alloc_roots)
let zero_alloc_epsilon = 0.01

let results_json results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"dvfs-microbench/1\",\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    {\"name\": \"%s\", \"ops\": %d, \"ns_per_op\": %.1f, \"words_per_op\": %.4f}%s\n"
        r.name r.ops r.ns_per_op r.words_per_op
        (if i = List.length results - 1 then "" else ","))
    results;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run_benches ~out ~check =
  if Analysis.Config.enabled () then
    print_endline
      "note: the invariant sanitizer is enabled (DVFS_SANITIZE); words/op includes its checks";
  let results = List.map (fun b -> b ()) all_benches in
  Printf.printf "%-28s %12s %12s\n" "benchmark" "ns/op" "words/op";
  List.iter
    (fun r -> Printf.printf "%-28s %12.1f %12.4f\n" r.name r.ns_per_op r.words_per_op)
    results;
  (match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (results_json results));
      Printf.printf "wrote %s\n" path
  | None -> ());
  if check then begin
    let over r = r.words_per_op > zero_alloc_epsilon in
    let offenders = List.filter (fun r -> List.mem r.name zero_alloc_names && over r) results in
    List.iter
      (fun r ->
        Printf.eprintf "FAIL %s allocates %.4f words/op (limit %.4f)\n" r.name r.words_per_op
          zero_alloc_epsilon)
      offenders;
    let probe = List.find (fun r -> String.equal r.name meter_probe) results in
    if not (over probe) then
      Printf.eprintf "FAIL %s reads %.4f words/op: the meter cannot see the %.4f limit\n"
        probe.name probe.words_per_op zero_alloc_epsilon;
    if offenders <> [] || not (over probe) then exit 1;
    Printf.printf "zero-alloc check passed (%s); %s caught at %.4f words/op\n"
      (String.concat ", " zero_alloc_names)
      probe.name probe.words_per_op
  end

(* ------------------------------------------------------------------ *)
(* Manifest regression gate *)

let compare_manifests ~baseline_path ~current_path ~tolerance =
  let module M = Runner.Manifest in
  let load path =
    try M.load path with
    | M.Parse_error msg ->
        Printf.eprintf "error: %s: %s\n" path msg;
        exit 2
    | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
  in
  let baseline = load baseline_path and current = load current_path in
  let describe label path (m : M.t) =
    Printf.printf "%s %s (%s, %s): total %.3fs, %.1f MB alloc\n" label path m.M.schema
      (M.config m) m.M.total_seconds (M.total_alloc_mb m)
  in
  describe "baseline" baseline_path baseline;
  describe "current " current_path current;
  match M.diff ~tolerance ~baseline ~current () with
  | exception M.Config_mismatch msg ->
      Printf.eprintf "error: %s and %s are not comparable: %s\n" baseline_path current_path
        msg;
      exit 1
  | [] -> Printf.printf "no regression beyond %.2fx tolerance\n" tolerance
  | regressions ->
      List.iter
        (fun r -> Format.printf "REGRESSION %a@." M.pp_regression r)
        regressions;
      Printf.eprintf "%d metric(s) regressed beyond %.2fx tolerance\n"
        (List.length regressions) tolerance;
      exit 1

(* ------------------------------------------------------------------ *)
(* CLI *)

let usage () =
  prerr_endline
    "usage: micro run [--out FILE] [--check]\n\
    \       micro roots\n\
    \       micro compare BASELINE.json CURRENT.json [--tolerance T]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "roots" ] ->
      (* The dynamic half of the zero-alloc consistency contract: the hot
         root keys this binary's --check gate measures, in the same
         one-per-line form analyze_main --alloc-roots prints. *)
      List.iter print_endline
        (List.sort_uniq String.compare (List.map snd zero_alloc_roots))
  | _ :: "run" :: rest ->
      let rec parse out check = function
        | [] -> run_benches ~out ~check
        | "--out" :: path :: rest -> parse (Some path) check rest
        | "--check" :: rest -> parse out true rest
        | _ -> usage ()
      in
      parse None false rest
  | _ :: "compare" :: baseline_path :: current_path :: rest ->
      let tolerance =
        match rest with
        | [] -> 1.5
        | [ "--tolerance"; t ] -> (
            match float_of_string_opt t with
            | Some f when f >= 1.0 -> f
            | Some _ | None ->
                prerr_endline "error: --tolerance must be a number >= 1.0";
                exit 2)
        | _ -> usage ()
      in
      compare_manifests ~baseline_path ~current_path ~tolerance
  | _ -> usage ()
