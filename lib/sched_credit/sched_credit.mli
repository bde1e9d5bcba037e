(** The Xen Credit scheduler, used as the paper's {e fix credit} scheduler
    (§3.1).

    Each domain's credit is a hard cap: per accounting period (30 ms in
    Xen) a domain may consume at most [credit% × period] of CPU time, and
    unused time is {e not} redistributed — the processor idles instead
    (non-work-conserving).  This is what makes the host look underloaded to
    a DVFS governor when a domain is lazy (Scenario 1, §3.2).

    Three special cases follow Xen:
    - Dom0 has strictly highest priority (§5.3: Dom0 is configured with the
      highest priority);
    - a domain created with a null credit has no cap and soaks up slices no
      capped domain wants, with no guarantee (§3.1);
    - a domain waking from idle gets BOOST priority for its next dispatch
      (Xen's latency fix for I/O-bound domains — cf. the scheduler
      comparison the paper cites as [6]); disable with [~boost:false].

    The {e effective} credit is what {!Scheduler.t.set_effective_credit}
    manipulates; the PAS policy rescales it as the frequency moves, while
    the {e initial} credit remains the sold SLA. *)

val create :
  ?account_period:Sim_time.t ->
  ?host_capacity:int ->
  ?boost:bool ->
  Hypervisor.Domain.t list ->
  Hypervisor.Scheduler.t
(** [account_period] must equal the host's accounting period (default
    30 ms) — quotas are refilled on {!Hypervisor.Scheduler.t.on_account_period}.
    [host_capacity] is the host's core count (default 1): a credit is a
    percentage of the {e whole} host, so quotas scale with it.
    @raise Invalid_argument on duplicate domains, a zero period, or
    [host_capacity < 1]. *)

type t
(** The scheduler's own state, for a policy that drives it directly (PAS
    rescales effective credits every window without going through the
    {!Hypervisor.Scheduler.t} closures). *)

val make :
  ?account_period:Sim_time.t -> ?host_capacity:int -> ?boost:bool -> Hypervisor.Domain.t list -> t
(** Same arguments and checks as {!create}. *)

val scheduler : t -> Hypervisor.Scheduler.t
(** The plug-in record over [t]; [create] is [scheduler (make ...)]. *)

val set_effective_credit : t -> Hypervisor.Domain.t -> float -> unit
(** The record's [set_effective_credit], callable without the closure.
    @raise Invalid_argument on a negative credit or an unknown domain. *)

val effective_credit : t -> Hypervisor.Domain.t -> float

val quota_of : account_period:Sim_time.t -> host_capacity:int -> float -> Sim_time.t
(** A domain's CPU time per accounting period at [credit] percent of a
    [host_capacity]-core host, rounded to the microsecond.  The scheduler
    computes it once per effective-credit change and refills from the
    cached value every period. *)
