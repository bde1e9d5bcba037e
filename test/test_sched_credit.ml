(* Tests for the Xen Credit scheduler: cap enforcement, non-work-conserving
   behaviour, Dom0 priority, uncapped domains, effective-credit updates. *)

module Workload = Workloads.Workload
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

let _check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))
let sec = Sim_time.of_sec

let run_host ?(duration = 10) scheduler =
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler () in
  Host.run_for host (sec duration);
  host

let share d duration = Sim_time.to_sec (Domain.cpu_time d) /. float_of_int duration

let cap_enforced_under_contention () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:70.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ a; b ]));
  check_float_eps 0.01 "a share" 0.20 (share a 10);
  check_float_eps 0.01 "b share" 0.70 (share b 10)

let non_work_conserving () =
  (* The defining fix-credit property: b's unused slices are NOT given to a. *)
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:70.0 (Workload.idle ()) in
  let host = run_host (Sched_credit.create [ a; b ]) in
  check_float_eps 0.01 "a stays at its cap" 0.20 (share a 10);
  check_float_eps 0.1 "host mostly idle" 2.0 (Sim_time.to_sec (Host.total_busy host))

let dom0_has_priority () =
  (* With total demand above 100%, Dom0 must still get its full 10%. *)
  let dom0 = Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workload.busy_loop ()) in
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:50.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ a; dom0; b ]));
  check_float_eps 0.01 "dom0 full share" 0.10 (share dom0 10)

let uncapped_soaks_leftover_only () =
  let capped = Domain.create ~name:"capped" ~credit_pct:30.0 (Workload.busy_loop ()) in
  let free = Domain.create ~name:"free" ~credit_pct:0.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ free; capped ]));
  check_float_eps 0.01 "capped gets its guarantee" 0.30 (share capped 10);
  check_float_eps 0.01 "uncapped gets the rest" 0.70 (share free 10)

let equal_credits_fair_rr () =
  let a = Domain.create ~name:"a" ~credit_pct:60.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:60.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ a; b ]));
  (* Demand 120% over a 100% CPU: both should converge to ~50%. *)
  check_float_eps 0.02 "a half" 0.5 (share a 10);
  check_float_eps 0.02 "b half" 0.5 (share b 10)

let set_effective_credit_applies () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler:sched () in
  Host.run_for host (sec 5);
  sched.Scheduler.set_effective_credit a 40.0;
  check_float_eps 1e-9 "effective updated" 40.0 (sched.Scheduler.effective_credit a);
  check_float_eps 1e-9 "initial untouched" 20.0 (Domain.initial_credit a);
  let before = Sim_time.to_sec (Domain.cpu_time a) in
  Host.run_for host (sec 5);
  let delta = Sim_time.to_sec (Domain.cpu_time a) -. before in
  check_float_eps 0.05 "40% after raise" 2.0 delta

let set_effective_credit_lowering () =
  let a = Domain.create ~name:"a" ~credit_pct:80.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler:sched () in
  sched.Scheduler.set_effective_credit a 10.0;
  Host.run_for host (sec 10);
  check_float_eps 0.02 "lowered cap respected" 0.10 (share a 10)

let set_effective_credit_negative () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Sched_credit.set_effective_credit: negative credit") (fun () ->
      sched.Scheduler.set_effective_credit a (-5.0))

let unknown_domain_rejected () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  let foreign = Domain.create ~name:"foreign" ~credit_pct:20.0 (Workload.idle ()) in
  Alcotest.check_raises "unknown" (Invalid_argument "Sched_credit: unknown domain") (fun () ->
      ignore (sched.Scheduler.effective_credit foreign))

let duplicate_domains_rejected () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.idle ()) in
  Alcotest.check_raises "duplicates" (Invalid_argument "Sched_credit.create: duplicate domains")
    (fun () -> ignore (Sched_credit.create [ a; a ]))

let quota_does_not_accumulate () =
  (* A domain idle for a while must not burst beyond its cap afterwards:
     quotas reset each period instead of accruing. *)
  let app =
    Workloads.Web_app.create
      ~rate_schedule:[ (Sim_time.zero, 0.0); (sec 5, 3.0) ]
      ()
  in
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let sched = Sched_credit.create [ a ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler:sched () in
  Host.run_for host (sec 5);
  let before = Sim_time.to_sec (Domain.cpu_time a) in
  Host.run_for host (sec 5);
  let delta = Sim_time.to_sec (Domain.cpu_time a) -. before in
  check_float_eps 0.02 "still 20% after idling" 1.0 delta;
  check_bool "no back-pay at all" true (before < 0.01)

let boost_cuts_wake_latency () =
  let run ~boost =
    let sim = Simulator.create () in
    let processor = Processor.create Cpu_model.Arch.optiplex_755 in
    let cl = Workloads.Closed_loop.create ~clients:2 ~think_time:0.2 ~request_work:0.002 () in
    let interactive =
      Domain.create ~name:"interactive" ~credit_pct:10.0 (Workloads.Closed_loop.workload cl)
    in
    let batch =
      List.init 5 (fun i ->
          Domain.create ~name:(Printf.sprintf "b%d" i) ~credit_pct:18.0 (Workload.busy_loop ()))
    in
    let scheduler = Sched_credit.create ~boost (interactive :: batch) in
    let host = Host.create ~sim ~processor ~scheduler () in
    Host.run_for host (sec 30);
    Stats.Running.mean (Workloads.Closed_loop.response_times cl)
  in
  let with_boost = run ~boost:true and without = run ~boost:false in
  check_bool
    (Printf.sprintf "boost (%.4fs) beats no-boost (%.4fs)" with_boost without)
    true (with_boost < without)

let boost_preserves_shares () =
  (* BOOST reorders dispatch but must not change CPU shares. *)
  let a = Domain.create ~name:"a" ~credit_pct:30.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:60.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create ~boost:true [ a; b ]));
  check_float_eps 0.01 "a share" 0.30 (share a 10);
  check_float_eps 0.01 "b share" 0.60 (share b 10)

let pick_excludes () =
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a; b ] in
  match
    sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(Sim_time.of_ms 1)
      ~exclude:(Scheduler.Mask.of_list [ a ])
  with
  | Some { Scheduler.domain; _ } -> check_bool "avoids excluded" true (Domain.equal domain b)
  | None -> Alcotest.fail "expected a pick"

let pick_none_when_all_excluded () =
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  check_bool "none" true
    (sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(Sim_time.of_ms 1)
       ~exclude:(Scheduler.Mask.of_list [ a ])
    = None)

(* The refill copies a per-domain period quota cached at creation and on
   every effective-credit change.  Random credit changes, charges and
   refills on two capped domains, against a model that recomputes
   [quota_of] from the current credit at every step (including the old
   quota a mid-period change adjusts by): each domain's offered slice must
   equal the model's remaining quota after every step. *)
type quota_op = Set of int * float | Charge of int * int | Refill

let gen_quota_case =
  QCheck.Gen.(
    let* period_ms = int_range 1 100 in
    let* capacity = int_range 1 4 in
    let* credits = pair (float_range 1.0 100.0) (float_range 1.0 100.0) in
    let* ops =
      list_size (int_range 1 60)
        (frequency
           [
             (3, map2 (fun d c -> Set (d, c)) (int_bound 1) (float_range 0.0 150.0));
             (2, map2 (fun d us -> Charge (d, us)) (int_bound 1) (int_range 0 100_000));
             (1, return Refill);
           ])
    in
    return (period_ms, capacity, credits, ops))

let pp_quota_case (period_ms, capacity, (c0, c1), ops) =
  Printf.sprintf "period=%dms capacity=%d credits=%h,%h ops=[%s]" period_ms capacity c0 c1
    (String.concat "; "
       (List.map
          (function
            | Set (d, c) -> Printf.sprintf "set%d %h" d c
            | Charge (d, us) -> Printf.sprintf "charge%d %d" d us
            | Refill -> "refill")
          ops))

let cached_quota_matches_quota_of =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"cached period quota = quota_of recomputed"
       (QCheck.make gen_quota_case ~print:pp_quota_case)
       (fun (period_ms, capacity, (c0, c1), ops) ->
         let account_period = Sim_time.of_ms period_ms in
         let quota_of = Sched_credit.quota_of ~account_period ~host_capacity:capacity in
         let doms =
           [|
             Domain.create ~name:"a" ~credit_pct:c0 (Workload.busy_loop ());
             Domain.create ~name:"b" ~credit_pct:c1 (Workload.busy_loop ());
           |]
         in
         let sched =
           Sched_credit.create ~account_period ~host_capacity:capacity (Array.to_list doms)
         in
         let credit = [| c0; c1 |] in
         let quota = Array.map quota_of credit in
         let offered d =
           match
             sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(Sim_time.of_sec 1_000)
               ~exclude:(Scheduler.Mask.of_list [ doms.(1 - d) ])
           with
           | Some slice -> slice.Scheduler.max_slice
           | None -> Sim_time.zero
         in
         let sub_floor a b =
           if Sim_time.compare b a >= 0 then Sim_time.zero else Sim_time.sub a b
         in
         List.for_all
           (fun op ->
             (match op with
             | Set (d, c) ->
                 let old_q = quota_of credit.(d) and new_q = quota_of c in
                 sched.Scheduler.set_effective_credit doms.(d) c;
                 credit.(d) <- c;
                 quota.(d) <-
                   (if Sim_time.compare new_q old_q >= 0 then
                      Sim_time.add quota.(d) (Sim_time.sub new_q old_q)
                    else sub_floor quota.(d) (Sim_time.sub old_q new_q))
             | Charge (d, us) ->
                 sched.Scheduler.charge ~domain:doms.(d) ~now:Sim_time.zero
                   ~used:(Sim_time.of_us us);
                 quota.(d) <- sub_floor quota.(d) (Sim_time.of_us us)
             | Refill ->
                 sched.Scheduler.on_account_period ~now:Sim_time.zero;
                 Array.iteri (fun d c -> quota.(d) <- quota_of c) credit);
             Sim_time.equal (offered 0) quota.(0) && Sim_time.equal (offered 1) quota.(1))
           ops))

let () =
  Alcotest.run "sched_credit"
    [
      ( "caps",
        [
          Alcotest.test_case "enforced under contention" `Quick cap_enforced_under_contention;
          Alcotest.test_case "non-work-conserving" `Quick non_work_conserving;
          Alcotest.test_case "quota does not accumulate" `Quick quota_does_not_accumulate;
        ] );
      ( "priorities",
        [
          Alcotest.test_case "dom0 first" `Quick dom0_has_priority;
          Alcotest.test_case "uncapped leftover" `Quick uncapped_soaks_leftover_only;
          Alcotest.test_case "equal credits fair" `Quick equal_credits_fair_rr;
        ] );
      ( "effective credit",
        [
          Alcotest.test_case "raise applies" `Quick set_effective_credit_applies;
          Alcotest.test_case "lower applies" `Quick set_effective_credit_lowering;
          Alcotest.test_case "negative rejected" `Quick set_effective_credit_negative;
          cached_quota_matches_quota_of;
        ] );
      ( "boost",
        [
          Alcotest.test_case "cuts wake latency" `Quick boost_cuts_wake_latency;
          Alcotest.test_case "preserves shares" `Quick boost_preserves_shares;
        ] );
      ( "interface",
        [
          Alcotest.test_case "unknown domain" `Quick unknown_domain_rejected;
          Alcotest.test_case "duplicates" `Quick duplicate_domains_rejected;
          Alcotest.test_case "pick excludes" `Quick pick_excludes;
          Alcotest.test_case "pick none" `Quick pick_none_when_all_excluded;
        ] );
    ]
