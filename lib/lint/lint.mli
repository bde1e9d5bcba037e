(** Custom static lint for the simulator's OCaml sources.

    Each file is parsed with the compiler's own parser
    ({!Staticcheck.parse_with}) and walked once with an [Ast_iterator];
    every rule is one match case over the parsetree, so comments and
    string literals never reach a rule.  The rules are tuned to the
    failure modes that matter for a deterministic fixed-point
    simulator:

    - [float-eq]: [=], [==], [!=] or [<>] with a float literal operand,
      and polymorphic [compare] applied to a float literal.  Exact float
      equality is almost always a rounding bug in credit/load arithmetic;
      use a tolerance or [Float.compare] deliberately and waive the line.
    - [random]: any use of the global [Random] module.  The simulator's
      runs must be reproducible; randomness goes through [Prng] with an
      explicit seed.  The AST effect pass ([effect-nondet]) only reports
      uses reachable from a simulation entry point, so it does not
      subsume this rule.
    - [missing-mli]: a [.ml] under a [lib/] directory without a sibling
      [.mli] — every library module must declare its interface.
    - [assert-false]: [assert false] without a comment containing
      "unreachable" on its line or the two above, explaining why the
      branch cannot be taken.
    - [mutable-doc]: a [mutable] record field exposed in an [.mli]
      without a doc comment from three lines above to one line below;
      exposed mutability is an API contract and must be documented.
    - [hashtbl-create]: [Hashtbl.create] without a nearby comment (same
      line or the two above) containing "deterministic" or "hash-order".
      Hashtbl iteration order depends on hash seeding and insertion
      history — the AST effect pass flags simulation-reachable iteration
      ([effect-nondet]); this rule makes the discipline explicit where
      the table is built (lookup-only tables are fine, say so).
    - [hot-path-printf]: a [Printf.*], [Format.*] or bare [print_*]
      identifier in a file that holds the standalone [(* alloc: none *)]
      marker line of the allocation prover.

    A file that does not parse yields a single [parse-error] issue
    ({!Staticcheck.parse_error_issue}), as in the AST analyzer.

    Any line whose raw text contains ["lint:ignore"] is exempt from the
    line-based rules; issue records, the waiver marker and the report
    format are shared with the AST analyzer through [Report]. *)

type issue = Report.issue = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

val waiver : string
(** The waiver marker, ["lint:ignore"] ({!Report.waiver}). *)

val lint_source : file:string -> string -> issue list
(** Lints one compilation unit given its file name (the [.ml]/[.mli]
    suffix selects the applicable rules) and full contents.  Does not
    touch the file system; the [missing-mli] rule is not applied. *)

val lint_paths : string list -> issue list
(** Walks the given files and directories (recursively, skipping [_build]
    and dot-files), lints every [.ml]/[.mli] found and applies the
    [missing-mli] rule to [lib/] subtrees.  Issues are sorted by file and
    line. *)

val pp_issue : Format.formatter -> issue -> unit
