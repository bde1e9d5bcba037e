(** Growable float/any arrays.

    OCaml 5.1's standard library has no dynamic array (Dynarray arrived in
    5.2), and time-series sampling needs amortised O(1) append, so we provide
    a small one.  ['a t] is a generic vector; [Floats] is an unboxed float
    specialisation used on the hot sampling path. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val clear : 'a t -> unit

val reset : 'a t -> unit
(** Empty the vector but keep its storage, so refilling to a similar size
    allocates nothing.  Note: retained slots keep references to the old
    elements until overwritten; use {!clear} to release them. *)

val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val last : 'a t -> 'a option

module Floats : sig
  type t

  val create : unit -> t
  val length : t -> int
  val get : t -> int -> float
  val push : t -> float -> unit

  val clear : t -> unit

  val reset : t -> unit
  (** Empty the vector but keep its storage (floats hold no references, so
      unlike the generic [reset] nothing is retained). *)

  val to_array : t -> float array
  val iter : (float -> unit) -> t -> unit
  val sum : t -> float
  val mean : t -> float
  (** Mean of the elements; 0 for an empty vector. *)
end
