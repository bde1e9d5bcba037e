(** Interprocedural ownership/escape analysis for per-host state.

    Proves which mutable state reachable from the host-state units
    ([Host], [Smp_host], [Vm], [Domain]) is confinable to a single
    shard of the planned sharded cluster runtime.  Structure-level
    bindings are classified into the confinement lattice

    {v HostConfined < ShardConfined < BoundaryChannel < Escaping v}

    by a least-fixpoint solve over reversed {!Callgraph} edges (a callee
    inherits the worst class of its callers); every mutable field and
    contained mutable structure of the host-state records is then
    reported with the join of its accessors' classes.  Cross-host
    coupling points are declared with a standalone
    [(* shard: boundary *)] marker on (or directly above) the binding —
    the same grammar as [(* alloc: none *)].  Escape witnesses — host
    state reached from a cluster unit outside a declared boundary,
    host-bound locals captured by spawned closures or stored in global
    tables, host values returned through a simulation entry — are
    reported as [shard-escape]; flows the resolver cannot follow are
    [shard-unknown-flow].  Messages carry the shortest
    constructor/API -> ... -> escape-site call chain. *)

type confinement = Host_confined | Shard_confined | Boundary_channel | Escaping

val class_name : confinement -> string
(** ["HostConfined"], ["ShardConfined"], ["BoundaryChannel"],
    ["Escaping"]. *)

include Lattice.S with type t = confinement
(** The fixpoint runs over reversed call edges [(callee, caller)]: a
    callee inherits the worst class of its callers. *)

val check : sources:(string * string) list -> Callgraph.t -> Report.issue list
(** The [shard-escape] / [shard-unknown-flow] findings. *)

type root_report = {
  okey : string;  (** ["Host.t.handles"], ["Domain.next_id"] *)
  ofile : string;
  oline : int;
  okind : string;  (** what makes it a root: container kind, embed, … *)
  oclass : confinement;
}

val roots : sources:(string * string) list -> Callgraph.t -> root_report list
(** Confinement verdict for every mutable root of the host-state units,
    sorted by key — the machine-readable report behind
    [analyze --shard-roots]. *)
