(* Tests for the paper's contribution: the equations of §4.2, the
   in-hypervisor PAS scheduler, and the user-level implementation variants. *)

module Workload = Workloads.Workload
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency
module Calibration = Cpu_model.Calibration
module Equations = Pas.Equations

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let sec = Sim_time.of_sec

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let optiplex = Cpu_model.Arch.optiplex_755
let table = optiplex.Cpu_model.Arch.freq_table

(* ------------------------------------------------------------------ *)
(* Equations *)

let eq_absolute_load () =
  (* The paper's running example: 20% global load at half frequency is a
     10% absolute load. *)
  check_float "paper example" 10.0 (Equations.absolute_load ~global_load:20.0 ~ratio:0.5 ~cf:1.0)

let eq_load_at_roundtrip =
  qtest "absolute_load and load_at are inverse"
    QCheck.(triple (float_range 0.0 100.0) (float_range 0.3 1.0) (float_range 0.7 1.0))
    (fun (load, ratio, cf) ->
      let abs = Equations.absolute_load ~global_load:load ~ratio ~cf in
      Float.abs (Equations.load_at ~absolute_load:abs ~ratio ~cf -. load) < 1e-9)

let eq_compensated_credit () =
  (* §4.2: 20% at ratio 0.5 becomes 40%. *)
  check_float "paper example" 40.0 (Equations.compensated_credit ~initial:20.0 ~ratio:0.5 ~cf:1.0);
  (* Fig. 9: 20% at 1600/2667 MHz becomes ~33%. *)
  check_float_eps 0.05 "fig9 value" 33.3
    (Equations.compensated_credit ~initial:20.0 ~ratio:(1600.0 /. 2667.0) ~cf:1.0)

let eq_compensation_preserves_capacity =
  qtest "compensated credit delivers the initial absolute capacity"
    QCheck.(pair (float_range 1.0 50.0) (float_range 0.3 1.0))
    (fun (credit, ratio) ->
      let cf = 0.95 in
      let compensated = Equations.compensated_credit ~initial:credit ~ratio ~cf in
      (* capacity = credit% x speed; must be invariant. *)
      Float.abs ((compensated *. ratio *. cf) -. credit) < 1e-9)

let eq_times () =
  check_float "eq2" 20.0 (Equations.time_at ~t_max:10.0 ~ratio:0.5 ~cf:1.0);
  check_float "eq3" 5.0 (Equations.time_with_credit ~t_init:10.0 ~c_init:10.0 ~c_new:20.0);
  Alcotest.check_raises "bad credit"
    (Invalid_argument "Equations.time_with_credit: credits must be positive") (fun () ->
      ignore (Equations.time_with_credit ~t_init:1.0 ~c_init:0.0 ~c_new:1.0));
  Alcotest.check_raises "bad speed" (Equations.Invalid_speed { ratio = 0.0; cf = 1.0 })
    (fun () -> ignore (Equations.time_at ~t_max:1.0 ~ratio:0.0 ~cf:1.0));
  (* NaN payloads defeat structural equality, so match by hand. *)
  check_bool "nan speed" true
    (match Equations.compensated_credit ~initial:10.0 ~ratio:Float.nan ~cf:1.0 with
    | (_ : float) -> false
    | exception Equations.Invalid_speed { ratio; cf = _ } -> Float.is_nan ratio)

let eq_compute_new_freq () =
  let cal = Calibration.ideal in
  check_int "idle -> min" 1600 (Equations.compute_new_freq table cal ~absolute_load:0.0);
  check_int "low -> min" 1600 (Equations.compute_new_freq table cal ~absolute_load:30.0);
  check_int "mid (1867/2667 = 70%% capacity)" 1867
    (Equations.compute_new_freq table cal ~absolute_load:65.0);
  check_int "mid-high" 2133 (Equations.compute_new_freq table cal ~absolute_load:75.0);
  check_int "full -> max" 2667 (Equations.compute_new_freq table cal ~absolute_load:99.0);
  check_int "overload -> max" 2667 (Equations.compute_new_freq table cal ~absolute_load:150.0)

let eq_compute_strict_boundary () =
  let cal = Calibration.ideal in
  (* Listing 1.1 uses a strict inequality: a load exactly equal to a level's
     capacity must push to the next level. *)
  let ratio_min = 1600.0 /. 2667.0 in
  check_int "boundary goes up" 1867
    (Equations.compute_new_freq table cal ~absolute_load:(ratio_min *. 100.0))

let eq_can_absorb () =
  let cal = Calibration.ideal in
  check_bool "min absorbs 30" true (Equations.can_absorb table cal 1600 ~absolute_load:30.0);
  check_bool "min rejects 70" false (Equations.can_absorb table cal 1600 ~absolute_load:70.0)

let eq_compute_monotone =
  qtest "chosen frequency is monotone in the load"
    QCheck.(pair (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (l1, l2) ->
      let cal = Calibration.ideal in
      let lo = Float.min l1 l2 and hi = Float.max l1 l2 in
      Equations.compute_new_freq table cal ~absolute_load:lo
      <= Equations.compute_new_freq table cal ~absolute_load:hi)

(* ------------------------------------------------------------------ *)
(* PAS scheduler *)

let pas_host domains =
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let pas = Pas.Pas_sched.create ~processor domains in
  let host = Host.create ~sim ~processor ~scheduler:(Pas.Pas_sched.scheduler pas) () in
  (host, processor, pas)

(* The table-driven window against Listing 1.1/1.2 evaluated afresh from
   [Equations] at every step: the chosen frequency, every effective credit
   and the absolute load must agree bit for bit, on any architecture and
   calibration, from any sequence of busy fractions. *)
let pas_matches_listings =
  let calibration levels =
    QCheck.Gen.(
      oneof
        [
          return Calibration.ideal;
          map Calibration.exponent (float_range 0.0 3.0);
          map Calibration.table
            (list_size (int_range 0 4) (pair (oneofl levels) (float_range 0.5 1.2)));
        ])
  in
  let gen =
    QCheck.Gen.(
      oneofl Cpu_model.Arch.all >>= fun arch ->
      let levels = Array.to_list (Frequency.levels arch.Cpu_model.Arch.freq_table) in
      quad (return arch) (calibration levels)
        (list_size (int_range 1 4) (oneof [ return 0.0; float_range 1.0 100.0 ]))
        (* a level's own ratio as the busy fraction lands the absolute load
           exactly on a capacity: Listing 1.1's strict test decides *)
        (list_size (int_range 1 40)
           (oneof
              [
                float_range 0.0 1.0;
                oneofl (List.map (Frequency.ratio arch.Cpu_model.Arch.freq_table) levels);
              ])))
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  qtest "evaluate = Listing 1.1/1.2 bit for bit" (QCheck.make gen)
    (fun (arch, calibration, credits, fractions) ->
      let arch = { arch with Cpu_model.Arch.calibration } in
      let table = arch.Cpu_model.Arch.freq_table in
      let processor = Processor.create arch in
      let domains =
        List.mapi
          (fun i credit_pct ->
            Domain.create ~name:(Printf.sprintf "d%d" i) ~credit_pct (Workload.idle ()))
          credits
      in
      let pas = Pas.Pas_sched.create ~processor domains in
      let scheduler = Pas.Pas_sched.scheduler pas in
      let observe = Option.get scheduler.Scheduler.observe_window in
      let window = Array.make 3 0.0 and filled = ref 0 and next = ref 0 in
      let freq = ref (Processor.current_freq processor) in
      List.for_all
        (fun busy_fraction ->
          let now = Sim_time.of_ms (100 * (Pas.Pas_sched.evaluations pas + 1)) in
          observe ~now ~busy_fraction;
          window.(!next) <- busy_fraction;
          next := (!next + 1) mod 3;
          filled := min 3 (!filled + 1);
          let sum = ref 0.0 in
          for i = 0 to !filled - 1 do
            sum := !sum +. window.(i)
          done;
          let absolute_load =
            Equations.absolute_load
              ~global_load:(!sum /. float_of_int !filled *. 100.0)
              ~ratio:(Frequency.ratio table !freq) ~cf:(Calibration.cf calibration table !freq)
          in
          freq := Equations.compute_new_freq table calibration ~absolute_load;
          let ratio = Frequency.ratio table !freq and cf = Calibration.cf calibration table !freq in
          Processor.current_freq processor = !freq
          && same (Pas.Pas_sched.last_absolute_load pas) absolute_load
          && List.for_all
               (fun d ->
                 let initial = Domain.initial_credit d in
                 let expected =
                   if initial > 0.0 then Equations.compensated_credit ~initial ~ratio ~cf
                   else initial
                 in
                 same (Pas.Pas_sched.effective_credit pas d) expected)
               domains)
        fractions)

(* An infinite speed exponent gives every level below the top cf = 0.  A
   negative load (a corrupt sample) makes Listing 1.1 pick the lowest
   level, where Listing 1.2 must still raise [Invalid_speed]. *)
let pas_invalid_speed () =
  let arch = { optiplex with Cpu_model.Arch.calibration = Calibration.exponent Float.infinity } in
  let vm = Domain.create ~name:"vm" ~credit_pct:20.0 (Workload.idle ()) in
  let pas = Pas.Pas_sched.create ~processor:(Processor.create arch) [ vm ] in
  let observe = Option.get (Pas.Pas_sched.scheduler pas).Scheduler.observe_window in
  observe ~now:(Sim_time.of_ms 100) ~busy_fraction:0.5;
  match observe ~now:(Sim_time.of_ms 200) ~busy_fraction:(-1.0) with
  | () -> Alcotest.fail "expected Invalid_speed"
  | exception Equations.Invalid_speed { ratio; cf } ->
      check_float "ratio" (1600.0 /. 2667.0) ratio;
      check_float "cf" 0.0 cf

let pas_lowers_frequency_when_idle () =
  let vm = Domain.create ~name:"vm" ~credit_pct:20.0 (Workload.idle ()) in
  let host, processor, pas = pas_host [ vm ] in
  Host.run_for host (sec 2);
  check_int "min frequency" 1600 (Processor.current_freq processor);
  check_bool "evaluations happened" true (Pas.Pas_sched.evaluations pas > 10)

let pas_compensates_credit () =
  (* Thrashing V20 alone: frequency drops to 1600 MHz and the effective
     credit must become 20 / (1600/2667) = 33.3% (cf = 1). *)
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let host, processor, pas = pas_host [ v20 ] in
  Host.run_for host (sec 20);
  check_int "frequency low" 1600 (Processor.current_freq processor);
  check_float_eps 0.1 "compensated credit" (20.0 *. 2667.0 /. 1600.0)
    (Pas.Pas_sched.effective_credit pas v20);
  (* The absolute capacity delivered must match the sold credit. *)
  let abs = Host.series_domain_absolute_load host v20 in
  check_float_eps 0.6 "absolute capacity preserved" 20.0
    (Series.mean_between abs (sec 5) (sec 20))

let pas_raises_frequency_under_load () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.9) () in
  let hog = Domain.create ~name:"hog" ~credit_pct:90.0 (Workloads.Web_app.workload app) in
  let host, processor, _ = pas_host [ hog ] in
  Host.run_for host (sec 10);
  check_int "max frequency" 2667 (Processor.current_freq processor)

let pas_never_exceeds_absolute_credit () =
  (* "a VM is never given more computing capacity than its allocated
     credit" — even though the host is otherwise idle. *)
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.5) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let idle = Domain.create ~name:"V70" ~credit_pct:70.0 (Workload.idle ()) in
  let host, _, _ = pas_host [ v20; idle ] in
  Host.run_for host (sec 20);
  let abs = Host.series_domain_absolute_load host v20 in
  check_bool "capped at the sold capacity" true
    (Series.mean_between abs (sec 5) (sec 20) < 21.0)

let pas_credit_sum_may_exceed_100 () =
  (* §4.2's "important remark": at low frequency the credit sum exceeds
     100% because every domain is rescaled. *)
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.idle ()) in
  let b = Domain.create ~name:"b" ~credit_pct:50.0 (Workload.idle ()) in
  let host, _, pas = pas_host [ a; b ] in
  Host.run_for host (sec 2);
  let sum = Pas.Pas_sched.effective_credit pas a +. Pas.Pas_sched.effective_credit pas b in
  check_bool "sum above 100" true (sum > 100.0)

let pas_tracks_decisions () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.2) () in
  let vm = Domain.create ~name:"vm" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let host, _, pas = pas_host [ vm ] in
  Host.run_for host (sec 5);
  check_bool "some decisions" true (Pas.Pas_sched.frequency_decisions pas >= 1);
  check_bool "absolute load sane" true
    (Pas.Pas_sched.last_absolute_load pas >= 0.0 && Pas.Pas_sched.last_absolute_load pas <= 100.0)

(* PAS sets the frequency itself: a governor beside it would be a second
   DVFS controller on the same probe. *)
let pas_refuses_governor () =
  let vm = Domain.create ~name:"vm" ~credit_pct:20.0 (Workload.idle ()) in
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let scheduler = Pas.Pas_sched.scheduler (Pas.Pas_sched.create ~processor [ vm ]) in
  let governor = Governors.Stable_ondemand.create processor in
  Alcotest.check_raises "governor rejected"
    (Invalid_argument "Host.create: the scheduler owns DVFS (observe_window); pass no governor")
    (fun () -> ignore (Host.create ~sim ~processor ~scheduler ~governor ()))

(* ------------------------------------------------------------------ *)
(* User-level variants *)

let credit_manager_compensates () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let domains = [ v20 ] in
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let scheduler = Sched_credit.create domains in
  let governor = Governors.Stable_ondemand.create processor in
  let host = Host.create ~sim ~processor ~scheduler ~governor () in
  let daemon = Pas.User_level.credit_manager ~sim ~processor ~scheduler domains in
  Host.run_for host (sec 30);
  check_int "governor lowered frequency" 1600 (Processor.current_freq processor);
  check_float_eps 0.1 "daemon compensated credit" (20.0 *. 2667.0 /. 1600.0)
    (scheduler.Scheduler.effective_credit v20);
  check_bool "adjustments counted" true (Pas.User_level.adjustments daemon >= 1);
  check_int "never touches frequency" 0 (Pas.User_level.frequency_requests daemon)

let full_manager_sets_both () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let domains = [ v20 ] in
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let scheduler = Sched_credit.create domains in
  let userspace = Governors.Userspace.create processor in
  let governor = Governors.Userspace.governor userspace in
  let host = Host.create ~sim ~processor ~scheduler ~governor () in
  let daemon =
    Pas.User_level.full_manager ~sim ~processor ~scheduler ~userspace
      ~utilization:(Host.utilization_probe host) domains
  in
  Host.run_for host (sec 30);
  check_int "frequency lowered via userspace" 1600 (Processor.current_freq processor);
  check_float_eps 0.1 "credit compensated" (20.0 *. 2667.0 /. 1600.0)
    (scheduler.Scheduler.effective_credit v20);
  check_bool "frequency requests counted" true (Pas.User_level.frequency_requests daemon >= 1)

let daemon_stop () =
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workload.idle ()) in
  let domains = [ v20 ] in
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let scheduler = Sched_credit.create domains in
  let host = Host.create ~sim ~processor ~scheduler () in
  let daemon = Pas.User_level.credit_manager ~sim ~processor ~scheduler domains in
  Pas.User_level.stop daemon;
  (* Drop the frequency by hand: a stopped daemon must not compensate. *)
  Processor.set_freq processor ~now:(Host.now host) 1600;
  Host.run_for host (sec 5);
  check_float "credit untouched" 20.0 (scheduler.Scheduler.effective_credit v20)

let () =
  Alcotest.run "pas"
    [
      ( "equations",
        [
          Alcotest.test_case "absolute load" `Quick eq_absolute_load;
          eq_load_at_roundtrip;
          Alcotest.test_case "compensated credit" `Quick eq_compensated_credit;
          eq_compensation_preserves_capacity;
          Alcotest.test_case "times" `Quick eq_times;
          Alcotest.test_case "compute_new_freq" `Quick eq_compute_new_freq;
          Alcotest.test_case "strict boundary" `Quick eq_compute_strict_boundary;
          Alcotest.test_case "can_absorb" `Quick eq_can_absorb;
          eq_compute_monotone;
        ] );
      ( "pas scheduler",
        [
          Alcotest.test_case "lowers frequency when idle" `Quick pas_lowers_frequency_when_idle;
          Alcotest.test_case "compensates credit" `Quick pas_compensates_credit;
          Alcotest.test_case "raises frequency under load" `Quick pas_raises_frequency_under_load;
          Alcotest.test_case "never exceeds absolute credit" `Quick pas_never_exceeds_absolute_credit;
          Alcotest.test_case "credit sum may exceed 100" `Quick pas_credit_sum_may_exceed_100;
          Alcotest.test_case "tracks decisions" `Quick pas_tracks_decisions;
          Alcotest.test_case "refuses a governor" `Quick pas_refuses_governor;
          pas_matches_listings;
          Alcotest.test_case "invalid speed still raises" `Quick pas_invalid_speed;
        ] );
      ( "user level",
        [
          Alcotest.test_case "credit manager" `Quick credit_manager_compensates;
          Alcotest.test_case "full manager" `Quick full_manager_sets_both;
          Alcotest.test_case "stop" `Quick daemon_stop;
        ] );
    ]
