open Parsetree
module Ast_util = Staticcheck.Ast_util

type issue = Report.issue = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let waiver = Report.waiver
let pp_issue = Report.pp_issue

(* ------------------------------------------------------------------ *)
(* The documentation rules look for a marker comment in a window of raw
   source lines around the flagged one (1-based [line]). *)

let near lines ~line ~above ~below pred =
  let rec scan k =
    k <= line + below
    && ((k >= 1 && k <= Array.length lines && pred lines.(k - 1)) || scan (k + 1))
  in
  scan (line - above)

let mentions words raw =
  let lower = String.lowercase_ascii raw in
  List.exists (Report.contains_sub lower) words

(* The file gate of [hot-path-printf]: the standalone marker line the
   allocation pass reads, matched exactly so prose mentions of the
   grammar (or a string holding it) do not arm the rule. *)
let declares_hot_path lines =
  Array.exists (fun l -> String.equal (String.trim l) "(* alloc: none *)") lines

let printing = function
  | ("Printf" | "Format") :: _ -> true
  | [ name ] -> String.starts_with ~prefix:"print_" name
  | _ -> false

let is_float_literal e =
  match e.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false

(* A short rendering of a comparison operand for the [float-eq] message:
   identifiers, field accesses and literals; anything else is [_]. *)
let rec operand e =
  match e.pexp_desc with
  | Pexp_ident _ -> Option.fold ~none:"_" ~some:Ast_util.dotted (Ast_util.ident_path e)
  | Pexp_constant (Pconst_float (s, _) | Pconst_integer (s, _)) -> s
  | Pexp_field (r, { txt; _ }) -> operand r ^ "." ^ Longident.last txt
  | _ -> "_"

(* ------------------------------------------------------------------ *)
(* Every rule (see lint.mli) is one case of a single parsetree walk;
   [float-eq] is reported on the operator's line, where its waivers sit. *)

let lint_source ~file content =
  let lines = String.split_on_char '\n' content |> Array.of_list in
  let hot = declares_hot_path lines in
  let mli = Filename.check_suffix file ".mli" in
  let issues = ref [] in
  let report loc rule message =
    issues := { file; line = Ast_util.line_of loc; rule; message } :: !issues
  in
  let documented loc ~above ~below words =
    near lines ~line:(Ast_util.line_of loc) ~above ~below (mentions words)
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) when List.exists (fun (_, a) -> is_float_literal a) args -> (
        match Ast_util.ident_path f with
        | Some [ "compare" ] ->
            report f.pexp_loc "float-eq"
              "polymorphic compare near a float literal: use Float.compare"
        | Some [ (("=" | "<>" | "==" | "!=") as op) ] ->
            let lhs, rhs =
              match args with
              | [ (_, l); (_, r) ] -> (operand l, operand r)
              | _ -> ("_", "_")
            in
            report f.pexp_loc "float-eq"
              (Printf.sprintf
                 "structural equality with float literal (%s %s %s): compare with a \
                  tolerance, or waive with (* %s float-eq *)"
                 lhs op rhs waiver)
        | _ -> ())
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      when not (documented e.pexp_loc ~above:2 ~below:0 [ "unreachable" ]) ->
        report e.pexp_loc "assert-false"
          "assert false without an (* unreachable: … *) comment nearby explaining why \
           the branch cannot be taken"
    | Pexp_ident _ -> (
        match Ast_util.ident_path e with
        | Some ("Random" :: rest) ->
            report e.pexp_loc "random"
              (Printf.sprintf
                 "global Random.%s breaks run determinism: use Prng with an explicit seed"
                 (Ast_util.dotted rest))
        | Some [ "Hashtbl"; "create" ]
          when not
                 (documented e.pexp_loc ~above:2 ~below:0 [ "deterministic"; "hash-order" ])
          ->
            report e.pexp_loc "hashtbl-create"
              "Hashtbl.create without a nearby (* deterministic: … *) or hash-order \
               comment: iteration order is seed/history-dependent — say the table is \
               lookup-only (or sorted before iteration), or use an assoc list / Map"
        | Some path when hot && printing path ->
            report e.pexp_loc "hot-path-printf"
              (Printf.sprintf
                 "%s call in a file with an allocation-free hot path: move the printing \
                  out of the hot module or raise with a static message, or waive with (* \
                  %s hot-path-printf: reason *)"
                 (Ast_util.dotted path) waiver)
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let label_declaration it (ld : label_declaration) =
    if mli && ld.pld_mutable = Mutable
       && not (documented ld.pld_loc ~above:3 ~below:1 [ "(**" ])
    then
      report ld.pld_loc "mutable-doc"
        "mutable field exposed in an interface without an adjacent (** … *) doc comment";
    Ast_iterator.default_iterator.label_declaration it ld
  in
  let it = { Ast_iterator.default_iterator with expr; label_declaration } in
  match
    if mli then it.signature it (Staticcheck.parse_with Parse.interface ~file content)
    else it.structure it (Staticcheck.parse_with Parse.implementation ~file content)
  with
  | exception exn -> [ Staticcheck.parse_error_issue ~file exn ]
  | () ->
      (* The waiver marker exempts a line from every rule. *)
      Report.drop_waived ~source:content (List.rev !issues)

(* ------------------------------------------------------------------ *)
(* File-system walk + missing-mli. *)

let in_lib path =
  List.exists (String.equal "lib") (String.split_on_char '/' path)

let lint_paths roots =
  let files = Report.collect_sources roots in
  let issues =
    List.concat_map (fun path -> lint_source ~file:path (Report.read_file path)) files
  in
  let missing =
    List.filter_map
      (fun path ->
        if
          Filename.check_suffix path ".ml"
          && in_lib path
          && not (List.mem (path ^ "i") files)
        then
          Some
            {
              file = path;
              line = 1;
              rule = "missing-mli";
              message = "library module without an interface: add " ^ path ^ "i";
            }
        else None)
      files
  in
  Report.sort (issues @ missing)
