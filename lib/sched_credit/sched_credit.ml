module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler

let inv_credit =
  Analysis.Invariant.register "credit.effective-credit-bounds"
    ~doc:"effective credits handed to the Credit scheduler are finite and non-negative"

let inv_quota =
  Analysis.Invariant.register "credit.quota-nonneg"
    ~doc:"a domain's remaining quota never goes negative"

type dom_state = {
  domain : Domain.t;
  mutable effective_credit : float; (* percent; the cap the policy may move *)
  mutable quota : Sim_time.t; (* CPU time left this accounting period *)
  mutable period_quota : Sim_time.t; (* [quota_of effective_credit], cached *)
  mutable was_runnable : bool; (* for wake detection (BOOST) *)
  mutable boosted : bool; (* woke recently: dispatched ahead of the pack *)
  cell : Scheduler.slice; (* reusable dispatch decision, one per domain *)
  cell_opt : Scheduler.slice option; (* [Some cell], preallocated *)
}

type t = {
  period_s : float; (* the accounting period, in seconds *)
  host_capacity : int; (* physical cores: quotas are % of the whole host *)
  boost : bool;
  doms : dom_state array;
  mutable rr : int; (* round-robin pointer over capped domains *)
  mutable rr_uncapped : int;
  mutable rr_boost : int;
}

let quota_at ~period_s ~host_capacity credit =
  Sim_time.of_sec_f (credit /. 100.0 *. period_s *. float_of_int host_capacity)

let quota_of ~account_period ~host_capacity credit =
  quota_at ~period_s:(Sim_time.to_sec account_period) ~host_capacity credit

let rec index_of doms d i =
  if i >= Array.length doms then -1
  else if Domain.equal doms.(i).domain d then i
  else index_of doms d (i + 1)

let state t d =
  let i = index_of t.doms d 0 in
  if i < 0 then invalid_arg "Sched_credit: unknown domain";
  t.doms.(i)

(* A capped domain is eligible when runnable, not excluded and holding
   quota; an uncapped one merely needs to be runnable. *)
let eligible_capped st exclude =
  (not (Domain.uncapped st.domain))
  && Domain.runnable st.domain
  && (not (Scheduler.Mask.mem exclude st.domain))
  && Sim_time.compare st.quota Sim_time.zero > 0

let eligible_uncapped st exclude =
  Domain.uncapped st.domain
  && Domain.runnable st.domain
  && not (Scheduler.Mask.mem exclude st.domain)

(* Rotating scan starting after the round-robin pointer; -1 when nobody
   matches.  The predicates are top-level functions so the per-tick pick
   path builds no closures. *)
let rec rr_find doms exclude ptr n i pred =
  if i >= n then -1
  else begin
    let idx = (ptr + 1 + i) mod n in
    if pred doms.(idx) exclude then idx else rr_find doms exclude ptr n (i + 1) pred
  end

let pred_boost st exclude =
  st.boosted && (not (Domain.is_dom0 st.domain)) && eligible_capped st exclude

let pred_capped st exclude =
  (not (Domain.is_dom0 st.domain)) && eligible_capped st exclude

(* Wake detection: a domain that just became runnable gets BOOST priority
   (Xen's latency fix for I/O-bound domains) until its next dispatch. *)
let detect_wakes t =
  for i = 0 to Array.length t.doms - 1 do
    let st = t.doms.(i) in
    let runnable = Domain.runnable st.domain in
    if t.boost && runnable && not st.was_runnable then st.boosted <- true;
    st.was_runnable <- runnable
  done

let rec find_dom0 doms exclude i =
  if i >= Array.length doms then -1
  else begin
    let st = doms.(i) in
    if Domain.is_dom0 st.domain && eligible_capped st exclude then i
    else find_dom0 doms exclude (i + 1)
  end

(* The per-domain slice record is reused across picks (see the contract in
   Scheduler.slice): write the cap, hand back the preallocated option. *)
let slice_of st cap ~remaining =
  st.cell.Scheduler.max_slice <- Sim_time.min cap remaining;
  st.cell_opt

(* alloc: none *)
let pick t ~now:_ ~remaining ~exclude =
  detect_wakes t;
  (* Dom0 first: strictly highest priority. *)
  let i0 = find_dom0 t.doms exclude 0 in
  if i0 >= 0 then begin
    let st = t.doms.(i0) in
    slice_of st st.quota ~remaining
  end
  else begin
    let n = Array.length t.doms in
    let ib = rr_find t.doms exclude t.rr_boost n 0 pred_boost in
    if ib >= 0 then begin
      t.rr_boost <- ib;
      let st = t.doms.(ib) in
      slice_of st st.quota ~remaining
    end
    else begin
      let ic = rr_find t.doms exclude t.rr n 0 pred_capped in
      if ic >= 0 then begin
        t.rr <- ic;
        let st = t.doms.(ic) in
        slice_of st st.quota ~remaining
      end
      else begin
        let iu = rr_find t.doms exclude t.rr_uncapped n 0 eligible_uncapped in
        if iu >= 0 then begin
          t.rr_uncapped <- iu;
          slice_of t.doms.(iu) remaining ~remaining
        end
        else None
      end
    end
  end

(* Off-by-default sanitizer: the enabled check stays in the caller, so the
   charge path pays one branch when sanitizers are off. *)
(* alloc: cold *)
let[@inline never] check_quota st ~domain ~now =
  if Sim_time.compare st.quota Sim_time.zero >= 0 then Analysis.Check.pass inv_quota
  else
    Analysis.Check.fail inv_quota ~time_s:(Sim_time.to_sec now) ~component:"sched-credit"
      (Printf.sprintf "domain %s quota %s after charge" (* lint:ignore hot-path-printf: cold sanitizer failure message *)
         (Domain.name domain) (Sim_time.to_string st.quota))

(* alloc: none *)
let charge t ~domain ~now ~used =
  let st = state t domain in
  st.boosted <- false; (* the low-latency dispatch happened; back in the pack *)
  st.quota <- (if Sim_time.compare used st.quota >= 0 then Sim_time.zero
               else Sim_time.sub st.quota used);
  if Analysis.Config.enabled () then check_quota st ~domain ~now

(* The refill copies each domain's cached period quota, which changes only
   with its effective credit. *)
(* alloc: none *)
let on_account_period t ~now:_ =
  for i = 0 to Array.length t.doms - 1 do
    let st = t.doms.(i) in
    st.quota <- st.period_quota
  done

(* alloc: cold *)
let[@inline never] check_credit d credit =
  Analysis.Check.run inv_credit ~component:"sched-credit"
    ~detail:(fun () ->
      Printf.sprintf "domain %s assigned effective credit %.9g" (* lint:ignore hot-path-printf: lazy detail built only on failure *)
        (Domain.name d) credit)
    (Float.is_finite credit && credit >= 0.0)

(* PAS calls this for every capped domain once per window, passing
   pre-boxed credits. *)
let set_effective_credit t d credit =
  if Analysis.Config.enabled () then check_credit d credit;
  if credit < 0.0 then invalid_arg "Sched_credit.set_effective_credit: negative credit";
  let st = state t d in
  let old_quota = st.period_quota in
  let new_quota = quota_at ~period_s:t.period_s ~host_capacity:t.host_capacity credit in
  st.effective_credit <- credit;
  st.period_quota <- new_quota;
  (* Adjust the in-flight quota by the cap delta so a mid-period raise takes
     effect immediately (Listing 1.2 applies at scheduler ticks, not period
     boundaries). *)
  if Sim_time.compare new_quota old_quota >= 0 then
    st.quota <- Sim_time.add st.quota (Sim_time.sub new_quota old_quota)
  else begin
    let cut = Sim_time.sub old_quota new_quota in
    st.quota <-
      (if Sim_time.compare cut st.quota >= 0 then Sim_time.zero
       else Sim_time.sub st.quota cut)
  end

let effective_credit t d = (state t d).effective_credit

let make ?(account_period = Sim_time.of_ms 30) ?(host_capacity = 1) ?(boost = true) domains =
  if Sim_time.equal account_period Sim_time.zero then
    invalid_arg "Sched_credit.create: zero account period";
  if host_capacity < 1 then invalid_arg "Sched_credit.create: host_capacity must be >= 1";
  let ids = List.map Domain.id domains in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Sched_credit.create: duplicate domains";
  let period_s = Sim_time.to_sec account_period in
  {
    period_s;
    host_capacity;
    boost;
    doms =
      Array.of_list
        (List.map
           (fun d ->
             let cell = { Scheduler.domain = d; max_slice = Sim_time.zero } in
             let credit = Domain.initial_credit d in
             let period_quota = quota_at ~period_s ~host_capacity credit in
             {
               domain = d;
               effective_credit = credit;
               quota = period_quota;
               period_quota;
               was_runnable = false;
               boosted = false;
               cell;
               cell_opt = Some cell;
             })
           domains);
    rr = 0;
    rr_uncapped = 0;
    rr_boost = 0;
  }

let scheduler t =
  Scheduler.make ~name:"credit"
    ~domains:(fun () -> Array.to_list (Array.map (fun st -> st.domain) t.doms))
    ~pick:(fun ~now ~remaining ~exclude -> pick t ~now ~remaining ~exclude)
    ~charge:(fun ~domain ~now ~used -> charge t ~domain ~now ~used)
    ~on_account_period:(fun ~now -> on_account_period t ~now)
    ~set_effective_credit:(set_effective_credit t)
    ~effective_credit:(effective_credit t) ()

let create ?account_period ?host_capacity ?boost domains =
  scheduler (make ?account_period ?host_capacity ?boost domains)
