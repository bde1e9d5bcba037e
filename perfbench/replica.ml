(* Rebuilds of the benchmark's experiments from the library's public
   constructors, so the traced run can hand the host wrapped plug-ins.

   Each rebuild mirrors one registry experiment (Profile/Scenario for
   fig2-fig7, Ablation.energy_run, Cluster_ablation, Table2, Smp_ablation)
   step by step — same constructors, same order, same periodic events — and
   renders the same summary table, frames and notes, which the caller
   compares byte for byte with the registry experiment's output.  With
   [traced = true] every scheduler, governor/DVFS policy and domain workload
   the benchmark can reach is wrapped so each call opens a {!Spans} span,
   and every [run_for] is a [hypervisor.run_self] span.  Cluster nodes build
   their schedulers and Dom0s inside [Cluster.Manager]; those calls stay
   inside the run span's self time.

   The rebuilds also count what the modelled system did ({!model}); those
   counts, the energy bits and every rendered artefact form a fingerprint
   that must not change when the plug-ins are wrapped. *)

module Host = Hypervisor.Host
module Smp_host = Hypervisor.Smp_host
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Workload = Workloads.Workload
module Web_app = Workloads.Web_app
module Pi_app = Workloads.Pi_app
module Processor = Cpu_model.Processor
module Governor = Governors.Governor
module Scenario = Experiments.Scenario

type model = {
  mutable sim_us : int;  (** simulated time advanced by [run_for], summed over simulators *)
  mutable freq_transitions : int;
  mutable requests_injected : int;
  mutable requests_completed : int;
  mutable requests_timed_out : int;
  mutable pas_evaluations : int;
  mutable migrations : int;
  mutable energy_j : float;
}

let model () =
  {
    sim_us = 0;
    freq_transitions = 0;
    requests_injected = 0;
    requests_completed = 0;
    requests_timed_out = 0;
    pas_evaluations = 0;
    migrations = 0;
    energy_j = 0.0;
  }

(* [absorb into m] adds [m]'s counts to [into]. *)
let absorb into m =
  into.sim_us <- into.sim_us + m.sim_us;
  into.freq_transitions <- into.freq_transitions + m.freq_transitions;
  into.requests_injected <- into.requests_injected + m.requests_injected;
  into.requests_completed <- into.requests_completed + m.requests_completed;
  into.requests_timed_out <- into.requests_timed_out + m.requests_timed_out;
  into.pas_evaluations <- into.pas_evaluations + m.pas_evaluations;
  into.migrations <- into.migrations + m.migrations;
  into.energy_j <- into.energy_j +. m.energy_j

type ctx = { traced : bool; model : model }

type result = {
  summary : string;  (** [Table.render] of the experiment's summary *)
  frames : (string * string) list;  (** (stem, CSV) *)
  notes : string list;  (** lines the experiment's notes must contain *)
}

(* ---- plug-in wrappers -------------------------------------------- *)

let workload ctx w =
  if not ctx.traced then w
  else
    Workload.make ~name:(Workload.name w)
      ~advance:(fun ~now ~dt ->
        Spans.enter Spans.workload_advance;
        Workload.advance w ~now ~dt;
        Spans.leave ())
      ~has_work:(fun () ->
        Spans.enter Spans.workload_has_work;
        let r = Workload.has_work w in
        Spans.leave ();
        r)
      ~execute:(fun ~now ~cpu_time ~speed ->
        Spans.enter Spans.workload_execute;
        let r = Workload.execute w ~now ~cpu_time ~speed in
        Spans.leave ();
        r)
      ()

let scheduler ctx (s : Scheduler.t) =
  if not ctx.traced then s
  else
    {
      s with
      pick =
        (fun ~now ~remaining ~exclude ->
          Spans.enter Spans.sched_pick;
          let r = s.pick ~now ~remaining ~exclude in
          Spans.leave ();
          r);
      charge =
        (fun ~domain ~now ~used ->
          Spans.enter Spans.sched_charge;
          s.charge ~domain ~now ~used;
          Spans.leave ());
      on_account_period =
        (fun ~now ->
          Spans.enter Spans.sched_account;
          s.on_account_period ~now;
          Spans.leave ());
      observe_window =
        Option.map
          (fun observe ~now ~busy_fraction ->
            Spans.enter Spans.sched_window;
            observe ~now ~busy_fraction;
            Spans.leave ())
          s.observe_window;
    }

let governor ctx (g : Governor.t) =
  if not ctx.traced then g
  else
    {
      g with
      observe =
        (fun ~now ~busy_fraction ->
          Spans.enter Spans.governors_observe;
          g.observe ~now ~busy_fraction;
          Spans.leave ());
    }

(* An SMP DVFS policy is a governor, except PAS-SMP's, which is the PAS
   window evaluation. *)
let dvfs ctx ~span (p : Smp_host.dvfs_policy) =
  if not ctx.traced then p
  else
    {
      p with
      decide =
        (fun ~now ~domain ~core_utils ->
          Spans.enter span;
          p.decide ~now ~domain ~core_utils;
          Spans.leave ());
    }

let run_for ctx run duration =
  if ctx.traced then Spans.with_span Spans.hypervisor_run run else run ();
  ctx.model.sim_us <- ctx.model.sim_us + Sim_time.to_us duration

let count_app ctx app =
  let m = ctx.model in
  m.requests_injected <- m.requests_injected + Web_app.injected_requests app;
  m.requests_completed <- m.requests_completed + Web_app.completed_requests app;
  m.requests_timed_out <- m.requests_timed_out + Web_app.timed_out_requests app

let count_processor ctx processor =
  ctx.model.freq_transitions <-
    ctx.model.freq_transitions + Cpu_model.Cpufreq.transitions (Processor.cpufreq processor)

(* ---- Scenario.run (fig2-fig7, ablation-energy) --------------------- *)

(* Scenario's thrashing injection factor over the exact rate. *)
let thrashing_factor = 5.0

type scenario = {
  host : Host.t;
  v20 : Domain.t;
  v70 : Domain.t;
  v20_window : Sim_time.t * Sim_time.t;
  v70_window : Sim_time.t * Sim_time.t;
  phases : (Scenario.phase * (Sim_time.t * Sim_time.t)) list;
}

let scenario ctx ~sched ~gov ~load ~scale =
  let t sec = Sim_time.of_sec_f (sec *. scale) in
  let v20_from = t 500.0 and v20_until = t 5000.0 in
  let v70_from = t 2500.0 and v70_until = t 7000.0 in
  let duration = t 7500.0 in
  let rate_for credit =
    let exact = Workloads.Phases.exact_rate ~credit_pct:credit in
    match load with Scenario.Exact -> exact | Scenario.Thrashing -> exact *. thrashing_factor
  in
  let web active_from active_until credit =
    Web_app.create ~timeout:(Sim_time.of_sec 10)
      ~rate_schedule:
        (Workloads.Phases.three_phase ~active_from ~active_until ~rate:(rate_for credit))
      ()
  in
  let v20_app = web v20_from v20_until 20.0 in
  let v70_app = web v70_from v70_until 70.0 in
  let dom0_app = Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.01) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (workload ctx (Web_app.workload v20_app)) in
  let v70 = Domain.create ~name:"V70" ~credit_pct:70.0 (workload ctx (Web_app.workload v70_app)) in
  let dom0 =
    Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0
      (workload ctx (Web_app.workload dom0_app))
  in
  let domains = [ dom0; v20; v70 ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let sched, pas =
    match sched with
    | Scenario.Credit -> (Sched_credit.create domains, None)
    | Scenario.Sedf -> (Sched_sedf.create domains, None)
    | Scenario.Credit2 -> (Sched_credit2.create domains, None)
    | Scenario.Pas_scheduler ->
        let p = Pas.Pas_sched.create ~processor domains in
        (Pas.Pas_sched.scheduler p, Some p)
  in
  let gov =
    match gov with
    | Scenario.Performance -> Some (Governor.performance processor)
    | Scenario.Stock_ondemand -> Some (Governors.Ondemand.create processor)
    | Scenario.Stable_ondemand -> Some (Governors.Stable_ondemand.create processor)
    | Scenario.Powersave -> Some (Governor.powersave processor)
    | Scenario.No_governor -> None
  in
  let host =
    Host.create ~sim ~processor ~scheduler:(scheduler ctx sched)
      ?governor:(Option.map (governor ctx) gov)
      ()
  in
  run_for ctx (fun () -> Host.run_for host duration) duration;
  List.iter (count_app ctx) [ v20_app; v70_app; dom0_app ];
  count_processor ctx processor;
  Option.iter
    (fun p -> ctx.model.pas_evaluations <- ctx.model.pas_evaluations + Pas.Pas_sched.evaluations p)
    pas;
  ctx.model.energy_j <- ctx.model.energy_j +. Host.energy_joules host;
  {
    host;
    v20;
    v70;
    v20_window = (v20_from, v20_until);
    v70_window = (v70_from, v70_until);
    phases =
      [
        (Scenario.A, (v20_from, v70_from));
        (Scenario.B, (v70_from, v20_until));
        (Scenario.C, (v20_until, v70_until));
      ];
  }

(* Scenario's inner 80 % of a window. *)
let inner (lo, hi) =
  let margin = Sim_time.to_us (Sim_time.sub hi lo) / 10 in
  (Sim_time.add lo (Sim_time.of_us margin), Sim_time.sub hi (Sim_time.of_us margin))

let sla_deficit s d =
  let window = if Domain.equal d s.v20 then s.v20_window else s.v70_window in
  let lo, hi = inner window in
  let abs_series = Host.series_domain_absolute_load s.host d in
  let credit = Domain.initial_credit d in
  let times = Series.times abs_series and values = Series.values abs_series in
  let sum = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun i time ->
      if Sim_time.compare time lo >= 0 && Sim_time.compare time hi <= 0 then begin
        sum := !sum +. Float.max 0.0 (credit -. values.(i));
        incr n
      end)
    times;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

(* ---- Profile.make (fig2-fig7) -------------------------------------- *)

let profile ~sched ~gov ctx ~scale =
  let s = scenario ctx ~sched ~gov ~load:Scenario.Exact ~scale in
  let phase_name = function
    | Scenario.A -> "A (V20 alone)"
    | Scenario.B -> "B (both)"
    | Scenario.C -> "C (V70 alone)"
  in
  let phases = [ Scenario.A; Scenario.B; Scenario.C ] in
  let table =
    Table.create
      ~columns:(("series", Table.Left) :: List.map (fun p -> (phase_name p, Table.Right)) phases)
  in
  let row name series =
    Table.add_row table
      (name
      :: List.map
           (fun p ->
             let lo, hi = inner (List.assoc p s.phases) in
             Table.cell_f (Series.mean_between series lo hi))
           phases)
  in
  row "V20 global load %" (Host.series_domain_load s.host s.v20);
  row "V70 global load %" (Host.series_domain_load s.host s.v70);
  row "V20 absolute load %" (Host.series_domain_absolute_load s.host s.v20);
  row "V70 absolute load %" (Host.series_domain_absolute_load s.host s.v70);
  Table.add_rule table;
  row "frequency MHz" (Host.series_frequency s.host);
  {
    summary = Table.render table;
    frames = [ ("series", Series.Frame.to_csv (Host.frame s.host)) ];
    notes =
      [
        Printf.sprintf "V20 SLA deficit: %.2f points; energy: %.0f J; mean power: %.1f W"
          (sla_deficit s s.v20) (Host.energy_joules s.host) (Host.mean_watts s.host);
      ];
  }

(* ---- Ablation.energy_run ------------------------------------------- *)

let energy ctx ~scale =
  let configs =
    [
      ("credit + performance", Scenario.Credit, Scenario.Performance);
      ("credit + stock ondemand", Scenario.Credit, Scenario.Stock_ondemand);
      ("credit + stable ondemand", Scenario.Credit, Scenario.Stable_ondemand);
      ("credit2 + stable ondemand", Scenario.Credit2, Scenario.Stable_ondemand);
      ("sedf + stable ondemand", Scenario.Sedf, Scenario.Stable_ondemand);
      ("PAS", Scenario.Pas_scheduler, Scenario.No_governor);
    ]
  in
  let table =
    Table.create
      ~columns:
        [
          ("configuration", Table.Left);
          ("energy (kJ)", Table.Right);
          ("mean power (W)", Table.Right);
          ("V20 deficit (pts)", Table.Right);
          ("V70 deficit (pts)", Table.Right);
        ]
  in
  List.iter
    (fun (name, sched, gov) ->
      let s = scenario ctx ~sched ~gov ~load:Scenario.Thrashing ~scale in
      Table.add_row table
        [
          name;
          Table.cell_f (Host.energy_joules s.host /. 1000.0);
          Table.cell_f (Host.mean_watts s.host);
          Table.cell_f (sla_deficit s s.v20);
          Table.cell_f (sla_deficit s s.v70);
        ])
    configs;
  { summary = Table.render table; frames = []; notes = [] }

(* ---- Cluster_ablation ---------------------------------------------- *)

let tenants =
  [
    ("t1", 20.0, 2048, 1.2, (0.0, 400.0));
    ("t2", 15.0, 1024, 1.0, (0.0, 600.0));
    ("t3", 10.0, 1024, 0.8, (200.0, 800.0));
    ("t4", 20.0, 2048, 1.5, (400.0, 1000.0));
    ("t5", 10.0, 1024, 0.5, (0.0, 1200.0));
    ("t6", 15.0, 1024, 1.0, (600.0, 1200.0));
    ("t7", 10.0, 1024, 2.0, (800.0, 1200.0));
    ("t8", 5.0, 512, 1.0, (0.0, 1200.0));
    ("t9", 20.0, 2048, 0.3, (0.0, 1200.0));
    ("t10", 10.0, 1024, 1.0, (300.0, 900.0));
  ]

let cluster_config ctx (label, policy, rebalance_every) ~scale =
  let module Manager = Cluster.Manager in
  let sim = Simulator.create () in
  let apps_vms =
    List.map
      (fun (name, credit, memory_mb, demand, (t0, t1)) ->
        let app =
          Web_app.create ~timeout:(Sim_time.of_sec 10)
            ~rate_schedule:
              (Workloads.Phases.three_phase
                 ~active_from:(Sim_time.max (Sim_time.of_us 1) (Sim_time.of_sec_f (t0 *. scale)))
                 ~active_until:(Sim_time.of_sec_f (t1 *. scale))
                 ~rate:(credit /. 100.0 *. demand))
            ()
        in
        ( app,
          Cluster.Vm.create ~name ~credit_pct:credit ~memory_mb
            (workload ctx (Web_app.workload app)) ))
      tenants
  in
  let manager =
    Manager.create ~node_memory_mb:16_384 ~policy ~sim ~nodes:4 (List.map snd apps_vms)
  in
  (match rebalance_every with
  | Some period -> Manager.auto_rebalance manager ~every:(Sim_time.of_sec_f (period *. scale))
  | None -> ());
  let active_samples = ref [] in
  ignore
    (Simulator.every sim
       (Sim_time.of_sec_f (10.0 *. scale))
       (fun () -> active_samples := Manager.active_nodes manager :: !active_samples));
  let duration = Sim_time.of_sec_f (1200.0 *. scale) in
  run_for ctx (fun () -> Manager.run_for manager duration) duration;
  let apps = List.map fst apps_vms in
  List.iter (count_app ctx) apps;
  let m = ctx.model in
  m.migrations <- m.migrations + Manager.migrations manager;
  m.energy_j <- m.energy_j +. Manager.energy_joules manager;
  let injected = List.fold_left (fun acc app -> acc +. Web_app.injected_work app) 0.0 apps in
  let served = List.fold_left (fun acc app -> acc +. Web_app.completed_work app) 0.0 apps in
  let mean_active =
    let n = List.length !active_samples in
    if n = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 !active_samples) /. float_of_int n
  in
  [
    label;
    Table.cell_f (Manager.energy_joules manager /. 1000.0 /. scale);
    Table.cell_f mean_active;
    string_of_int (Manager.migrations manager);
    Table.cell_f1 (if injected = 0.0 then 100.0 else served /. injected *. 100.0);
  ]

let cluster ctx ~scale =
  let module Manager = Cluster.Manager in
  let table =
    Table.create
      ~columns:
        [
          ("configuration", Table.Left);
          ("fleet energy (kJ, normalised)", Table.Right);
          ("mean active nodes", Table.Right);
          ("migrations", Table.Right);
          ("work served %", Table.Right);
        ]
  in
  List.iter
    (fun config -> Table.add_row table (cluster_config ctx config ~scale))
    [
      ("static + performance (no DVFS)", Manager.No_dvfs, None);
      ("static + stable ondemand", Manager.Credit_ondemand, None);
      ("static + PAS nodes", Manager.Pas_nodes, None);
      ("consolidating (100 s) + PAS nodes", Manager.Pas_nodes, Some 100.0);
    ];
  { summary = Table.render table; frames = []; notes = [] }

(* ---- Table2 ----------------------------------------------------------- *)

let table2_run ctx platform ~mode ~scale =
  let module Platform = Platforms.Platform in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.elite_8300 in
  let work = 311.8 *. scale /. platform.Platform.efficiency in
  let pi = Pi_app.create ~duty_cycle:0.5 ~work () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (workload ctx (Pi_app.workload pi)) in
  let v70 = Domain.create ~name:"V70" ~credit_pct:70.0 (workload ctx (Workload.idle ())) in
  let dom0_app = Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.01) () in
  let dom0 =
    Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0
      (workload ctx (Web_app.workload dom0_app))
  in
  let instance = Platform.instantiate platform ~mode ~processor [ dom0; v20; v70 ] in
  let host =
    Host.create ~sim ~processor
      ~scheduler:(scheduler ctx instance.Platform.scheduler)
      ?governor:(Option.map (governor ctx) instance.Platform.governor)
      ()
  in
  let limit = Sim_time.of_sec_f (20_000.0 *. scale) in
  let chunk = Sim_time.of_sec_f (Float.max 1.0 (10.0 *. scale)) in
  let rec loop () =
    if Pi_app.finished pi then ()
    else if Sim_time.compare (Host.now host) limit >= 0 then
      failwith ("replica table2: pi-app did not finish on " ^ platform.Platform.name)
    else begin
      run_for ctx (fun () -> Host.run_for host chunk) chunk;
      loop ()
    end
  in
  loop ();
  count_app ctx dom0_app;
  count_processor ctx processor;
  Option.iter
    (fun p -> ctx.model.pas_evaluations <- ctx.model.pas_evaluations + Pas.Pas_sched.evaluations p)
    instance.Platform.pas;
  ctx.model.energy_j <- ctx.model.energy_j +. Host.energy_joules host;
  match Pi_app.execution_time pi with
  | Some t -> Sim_time.to_sec t /. scale
  | None -> failwith "replica table2: pi-app has no execution time"

let table2 ctx ~scale =
  let module Platform = Platforms.Platform in
  let table =
    Table.create
      ~columns:
        [
          ("platform", Table.Left);
          ("family", Table.Left);
          ("Performance (s)", Table.Right);
          ("OnDemand (s)", Table.Right);
          ("degradation %", Table.Right);
          ("paper perf/od/deg", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      let t_perf = table2_run ctx p ~mode:Platform.Performance ~scale in
      let t_od = table2_run ctx p ~mode:Platform.Ondemand ~scale in
      let degradation = (t_od -. t_perf) /. t_od *. 100.0 in
      let paper_perf, paper_od = List.assoc p.Platform.name Experiments.Table2.paper_times in
      let paper_deg = (paper_od -. paper_perf) /. paper_od *. 100.0 in
      let family =
        match p.Platform.kind with
        | Platform.Fix_credit -> "fix credit"
        | Platform.Variable_credit -> "variable credit"
        | Platform.Power_aware -> "power-aware"
      in
      Table.add_row table
        [
          p.Platform.name;
          family;
          Table.cell_f t_perf;
          Table.cell_f t_od;
          Table.cell_f1 degradation;
          Printf.sprintf "%.0f/%.0f/%.0f" paper_perf paper_od paper_deg;
        ])
    Platform.catalog;
  { summary = Table.render table; frames = []; notes = [] }

(* ---- Smp_ablation ---------------------------------------------------- *)

let smp_configs =
  let open Cpu_model.Smp in
  [
    ("fix credit + perf (baseline)", Per_package, `Fix_credit, `Performance);
    ("fix credit + ondemand(max-core)", Per_package, `Fix_credit, `Ondemand_max_core);
    ("work-conserving + ondemand(max-core)", Per_package, `Work_conserving, `Ondemand_max_core);
    ("work-conserving + per-core ondemand", Per_core, `Work_conserving, `Ondemand_max_core);
    ("fix credit + PAS-SMP", Per_package, `Fix_credit, `Pas);
  ]

let smp_run ctx (label, policy, sched_kind, dvfs_kind) ~scale =
  let module Smp = Cpu_model.Smp in
  let cores = 2 in
  let sim = Simulator.create () in
  let smp = Smp.create ~policy ~cores Cpu_model.Arch.elite_8300 in
  let pi = Pi_app.create ~work:(120.0 *. scale) () in
  let v20 =
    Domain.create ~vcpus:1 ~name:"V20" ~credit_pct:20.0 (workload ctx (Pi_app.workload pi))
  in
  let v70 =
    Domain.create ~vcpus:1 ~name:"V70" ~credit_pct:70.0 (workload ctx (Workload.idle ()))
  in
  let dom0 =
    Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (workload ctx (Workload.idle ()))
  in
  let domains = [ dom0; v20; v70 ] in
  let sched =
    match sched_kind with
    | `Fix_credit -> Sched_credit.create ~host_capacity:cores domains
    | `Work_conserving -> Sched_credit2.create domains
  in
  let pas =
    match dvfs_kind with
    | `Pas -> Some (Pas.Pas_smp.create ~smp ~scheduler:sched domains)
    | `Performance | `Ondemand_max_core -> None
  in
  let policy =
    match (dvfs_kind, pas) with
    | `Performance, _ -> dvfs ctx ~span:Spans.governors_observe (Smp_host.performance_policy smp)
    | `Ondemand_max_core, _ ->
        dvfs ctx ~span:Spans.governors_observe
          (Smp_host.ondemand_max_core smp ~period:(Sim_time.of_ms 100))
    | `Pas, Some p -> dvfs ctx ~span:Spans.sched_window (Pas.Pas_smp.policy p)
    | `Pas, None -> invalid_arg "replica smp: PAS policy without PAS"
  in
  let host = Smp_host.create ~sim ~smp ~scheduler:(scheduler ctx sched) ~dvfs:policy () in
  let limit = Sim_time.of_sec_f (4000.0 *. scale) in
  let chunk = Sim_time.of_sec_f (Float.max 1.0 (5.0 *. scale)) in
  let rec loop () =
    if Pi_app.finished pi then ()
    else if Sim_time.compare (Smp_host.now host) limit >= 0 then
      failwith ("replica smp: pi-app did not finish under " ^ label)
    else begin
      run_for ctx (fun () -> Smp_host.run_for host chunk) chunk;
      loop ()
    end
  in
  loop ();
  let m = ctx.model in
  m.freq_transitions <- m.freq_transitions + Smp.transitions smp;
  Option.iter (fun p -> m.pas_evaluations <- m.pas_evaluations + Pas.Pas_smp.evaluations p) pas;
  m.energy_j <- m.energy_j +. Smp_host.energy_joules host;
  let exec_time =
    match Pi_app.execution_time pi with
    | Some t -> Sim_time.to_sec t /. scale
    | None -> failwith "replica smp: pi-app has no execution time"
  in
  (exec_time, Smp_host.mean_watts host, Smp.transitions smp)

let smp ctx ~scale =
  let table =
    Table.create
      ~columns:
        [
          ("configuration", Table.Left);
          ("V20 exec time (s)", Table.Right);
          ("degradation %", Table.Right);
          ("mean power (W)", Table.Right);
          ("freq transitions", Table.Right);
        ]
  in
  let baseline = ref None in
  List.iter
    (fun ((label, _, sched_kind, dvfs_kind) as c) ->
      let t, watts, transitions = smp_run ctx c ~scale in
      (match dvfs_kind with `Performance -> baseline := Some t | _ -> ());
      let degradation =
        match (!baseline, sched_kind) with
        | Some b, `Fix_credit -> (t -. b) /. t *. 100.0
        | _ -> 0.0
      in
      Table.add_row table
        [
          label;
          Table.cell_f t;
          Table.cell_f1 degradation;
          Table.cell_f1 watts;
          string_of_int transitions;
        ])
    smp_configs;
  { summary = Table.render table; frames = []; notes = [] }

(* ---- registry --------------------------------------------------------- *)

let find id : (ctx -> scale:float -> result) option =
  let fig sched gov = Some (profile ~sched ~gov) in
  match id with
  | "fig2" -> fig Scenario.Credit Scenario.Performance
  | "fig3" -> fig Scenario.Credit Scenario.Stock_ondemand
  | "fig4" | "fig5" -> fig Scenario.Credit Scenario.Stable_ondemand
  | "fig6" | "fig7" -> fig Scenario.Sedf Scenario.Stable_ondemand
  | "ablation-energy" -> Some energy
  | "ablation-cluster" -> Some cluster
  | "table2" -> Some table2
  | "ablation-smp" -> Some smp
  | _ -> None

(* Byte-level fingerprint of one rebuild: every rendered artefact, the
   model counts and the exact bits of the energy total. *)
let fingerprint r m =
  String.concat "\n"
    (r.summary
    :: List.concat_map (fun (stem, csv) -> [ stem; csv ]) r.frames
    @ r.notes
    @ [
        Printf.sprintf "sim_us=%d transitions=%d injected=%d completed=%d timed_out=%d pas=%d \
                        migrations=%d energy=%h"
          m.sim_us m.freq_transitions m.requests_injected m.requests_completed
          m.requests_timed_out m.pas_evaluations m.migrations m.energy_j;
      ])

(* Does the rebuild reproduce the registry experiment's output? *)
let matches r (out : Experiments.Experiment.output) =
  String.equal r.summary (Table.render out.Experiments.Experiment.summary)
  && List.equal
       (fun (s1, c1) (s2, c2) -> String.equal s1 s2 && String.equal c1 c2)
       r.frames
       (List.map
          (fun (stem, frame) -> (stem, Series.Frame.to_csv frame))
          out.Experiments.Experiment.frames)
  && List.for_all (fun line -> List.mem line out.Experiments.Experiment.notes) r.notes
