(** The engine shared by the whole-program passes ({!Effect_check},
    {!Alloc_check}, {!Ownership_check}, {!Lock_check}).

    Each pass classifies the call-graph nodes into its own small, totally
    ordered lattice, propagates classes along call edges to a least
    fixpoint, and explains a finding by the shortest call chain from one
    of its sources (entry points, hot roots, host-state API functions).
    This module holds those three pieces once: the fixpoint over a ranked
    lattice, the indexed node table, and the multi-source shortest-chain
    search.  The passes keep their lattices, witnesses, source orders and
    message texts. *)

(** {1 Ranked lattices} *)

module type RANKED = sig
  type t

  val rank : t -> int
  (** Embeds the lattice into the integers: [a] is below [b] iff
      [rank a <= rank b]. *)
end

module type S = sig
  type t

  val rank : t -> int
  val join : t -> t -> t
  val leq : t -> t -> bool

  val solve : base:t array -> edges:(int * int) list -> t array
  (** Least fixpoint of [v i = join base.(i) (join over (i, j) in edges of
      v j)]: every edge [(i, j)] lifts [i] to at least [j].  Pure over
      plain arrays, so the property tests can check that it is monotone
      under edge addition and a fixpoint above [base]. *)
end

module Make (R : RANKED) : S with type t = R.t

(** {1 Call-graph nodes} *)

type node = { fkey : string; funit : Callgraph.unit_info; body : Parsetree.expression }

type table

val table : Callgraph.t -> table
(** Every structure-level binding of the graph, numbered in
    {!Callgraph.fold_funs} order. *)

val nodes : table -> node array
val keys : table -> string array

val find : table -> string -> int option
(** Index of the node with the given key. *)

(** {1 Shortest chains} *)

type paths

val shortest : n:int -> edges:(int * int) list -> sources:int list -> paths
(** Multi-source breadth-first search over the directed [edges] of an
    [n]-node graph.  Sources are enqueued in list order (repeats ignored)
    and every node's successors are visited in ascending index order, so
    the chains found are independent of the order of [edges]. *)

val reached : paths -> int -> bool

val chain : paths -> names:string array -> int -> string list
(** [names] of the nodes along a shortest chain from a source to the
    given node, source first.  An unreached node's chain is the node
    alone. *)
