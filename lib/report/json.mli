(** Minimal JSON reader shared by the manifest and SARIF loaders.

    Accepts any well-formed JSON document, so schema growth never needs
    a parser change.  [\u] escapes outside ASCII decode as ['?']. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string
(** Malformed input; the message names the byte offset where it can. *)

val parse : string -> t
(** The single JSON value making up the whole string (surrounding
    whitespace allowed).
    @raise Error on malformed input or trailing garbage. *)

val member : string -> t -> t option
(** Field of an object; [None] for a missing field or a non-object. *)
