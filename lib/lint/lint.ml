type issue = Report.issue = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let waiver = Report.waiver
let pp_issue = Report.pp_issue

(* ------------------------------------------------------------------ *)
(* Source preparation: blank comments, string and char literals so the
   rule matchers only ever see code.  Newlines are preserved so line
   numbers survive. *)

(* A quoted string literal [{|…|}] / [{id|…|id}] starting at [i]: the
   index just past the opening [|], and the delimiter id, if any. *)
let quoted_string_open source i =
  let n = String.length source in
  if i >= n || source.[i] <> '{' then None
  else begin
    let j = ref (i + 1) in
    while
      !j < n && ((source.[!j] >= 'a' && source.[!j] <= 'z') || source.[!j] = '_')
    do
      incr j
    done;
    if !j < n && source.[!j] = '|' then Some (!j + 1, String.sub source (i + 1) (!j - i - 1))
    else None
  end

let blank_non_code source =
  let n = String.length source in
  let buf = Bytes.of_string source in
  let blank j = if Bytes.get buf j <> '\n' then Bytes.set buf j ' ' in
  let i = ref 0 in
  let depth = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if !depth > 0 then
      if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
        incr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && source.[!i + 1] = ')' then begin
        decr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    else if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
      depth := 1;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if c = '{' && quoted_string_open source !i <> None then begin
      (* [{|…|}] / [{id|…|id}]: contents are verbatim (no escapes); blank
         everything up to and including the matching [|id}]. *)
      let body, id =
        match quoted_string_open source !i with
        | Some r -> r
        (* unreachable: guarded by the condition above *)
        | None -> assert false
      in
      let close = "|" ^ id ^ "}" in
      let m = String.length close in
      let j = ref body in
      while !j + m <= n && String.sub source !j m <> close do
        incr j
      done;
      let stop = Stdlib.min (if !j + m <= n then !j + m else n) n in
      for k = !i to stop - 1 do
        blank k
      done;
      i := stop
    end
    else if c = '"' then begin
      blank !i;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        let d = source.[!i] in
        if d = '\\' && !i + 1 < n then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else begin
          blank !i;
          incr i;
          if d = '"' then fin := true
        end
      done
    end
    else if c = '\'' then
      (* A char literal ('x', '\n'); a lone quote is a type variable. *)
      if !i + 2 < n && source.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while !j < n && source.[!j] <> '\'' do
          incr j
        done;
        for k = !i to Stdlib.min !j (n - 1) do
          blank k
        done;
        i := !j + 1
      end
      else if !i + 2 < n && source.[!i + 2] = '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else incr i
    else incr i
  done;
  Bytes.to_string buf

let split_lines s = String.split_on_char '\n' s |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Small token helpers over a single (blanked) line. *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_digit c = c >= '0' && c <= '9'

(* Maximal number/identifier token (dots included: [t.field], [0.0])
   extending right from [i]. *)
let token_at line i =
  let n = String.length line in
  let j = ref i in
  while !j < n && (is_ident_char line.[!j] || line.[!j] = '.') do
    incr j
  done;
  String.sub line i (!j - i)

(* The token ending just left of [i] (exclusive), skipping spaces. Returns
   the token and the index of the character preceding it (or -1). *)
let token_before line i =
  let j = ref (i - 1) in
  while !j >= 0 && line.[!j] = ' ' do
    decr j
  done;
  let stop = !j in
  while !j >= 0 && (is_ident_char line.[!j] || line.[!j] = '.') do
    decr j
  done;
  (String.sub line (!j + 1) (stop - !j), !j)

let token_after line i =
  let n = String.length line in
  let j = ref i in
  while !j < n && line.[!j] = ' ' do
    incr j
  done;
  if !j >= n then "" else token_at line !j

let is_float_literal tok =
  String.length tok > 0
  && is_digit tok.[0]
  && (String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E')

(* Does [word] occur as a standalone token in [line] before position [limit]? *)
let word_before line limit word =
  let wl = String.length word in
  let limit = Stdlib.min limit (String.length line) in
  let rec loop i =
    if i + wl > limit then false
    else if
      String.sub line i wl = word
      && (i = 0 || not (is_ident_char line.[i - 1]))
      && (i + wl >= String.length line || not (is_ident_char line.[i + wl]))
    then true
    else loop (i + 1)
  in
  loop 0

let op_chars = "<>!:+-*/=|&@^%$.~?"

(* ------------------------------------------------------------------ *)
(* Rule: float equality. *)

(* Structural-equality operators on this line: position and whether the
   operator can double as a [let]/field binding ([=] can, [==]/[!=]/[<>]
   cannot). *)
let equality_ops line =
  let n = String.length line in
  let ops = ref [] in
  let i = ref 0 in
  while !i < n do
    (match line.[!i] with
    | '=' ->
        let prev = if !i > 0 then line.[!i - 1] else ' ' in
        if String.contains op_chars prev then incr i
        else if !i + 1 < n && line.[!i + 1] = '=' then begin
          ops := (!i, `Compare_op, 2) :: !ops;
          i := !i + 2
        end
        else begin
          ops := (!i, `Maybe_binding, 1) :: !ops;
          incr i
        end
    | '<' when !i + 1 < n && line.[!i + 1] = '>' ->
        ops := (!i, `Compare_op, 2) :: !ops;
        i := !i + 2
    | '!' when !i + 1 < n && line.[!i + 1] = '=' ->
        ops := (!i, `Compare_op, 2) :: !ops;
        i := !i + 2
    | _ -> incr i);
    ()
  done;
  List.rev !ops

(* A [=] in a binding position: optional-argument default [?(x = …)],
   labelled default [~(x = …)], or record-field assignment
   [{ x = …] / [; x = …] / [with x = …]. *)
let binding_like line pos =
  let lhs, before = token_before line pos in
  if String.length lhs = 0 then true (* continuation line: not a comparison *)
  else begin
    let k = ref before in
    while !k >= 0 && line.[!k] = ' ' do
      decr k
    done;
    if !k < 0 then
      (* Operand starts the line: field on its own line ([x = 0.0;]) or a
         continued expression; treat as a binding unless context proves
         otherwise. *)
      not (String.contains lhs '.')
    else
      match line.[!k] with
      | '(' -> !k > 0 && (line.[!k - 1] = '?' || line.[!k - 1] = '~')
      | '{' | ';' -> true
      | _ ->
          (* [with] introduces record-update fields. *)
          let w, _ = token_before line (!k + 1) in
          String.equal w "with"
  end

let float_eq_issues ~file lines_code =
  let issues = ref [] in
  Array.iteri
    (fun ln line ->
      let ops = equality_ops line in
      let seen_eq = ref false in
      List.iter
        (fun (pos, kind, width) ->
          let lhs, _ = token_before line pos in
          let rhs = token_after line (pos + width) in
          let floaty = is_float_literal lhs || is_float_literal rhs in
          let comparison_context =
            match kind with
            | `Compare_op -> true
            | `Maybe_binding ->
                (!seen_eq
                || word_before line pos "if"
                || word_before line pos "when"
                || word_before line pos "while"
                || word_before line pos "assert"
                || Report.contains_sub (String.sub line 0 pos) "&&"
                || Report.contains_sub (String.sub line 0 pos) "||")
                && not (binding_like line pos)
          in
          if floaty && comparison_context then
            issues :=
              {
                file;
                line = ln + 1;
                rule = "float-eq";
                message =
                  Printf.sprintf
                    "structural equality with float literal (%s %s %s): compare with a \
                     tolerance, or waive with (* %s float-eq *)"
                    (if lhs = "" then "_" else lhs)
                    (String.sub line pos width)
                    (if rhs = "" then "_" else rhs)
                    waiver;
              }
              :: !issues;
          if kind = `Maybe_binding || kind = `Compare_op then seen_eq := true)
        ops;
      (* Polymorphic compare next to a float literal. *)
      let has_float_tok =
        let found = ref false in
        String.iteri
          (fun i c ->
            if
              is_digit c
              && (i = 0 || ((not (is_ident_char line.[i - 1])) && line.[i - 1] <> '.'))
              && is_float_literal (token_at line i)
            then found := true)
          line;
        !found
      in
      if has_float_tok then begin
        let n = String.length line in
        let rec scan i =
          if i + 7 <= n then
            if
              String.sub line i 7 = "compare"
              && (i = 0 || (not (is_ident_char line.[i - 1]) && line.[i - 1] <> '.'))
              && (i + 7 >= n || not (is_ident_char line.[i + 7]))
            then begin
              let prev, _ = token_before line i in
              if not (List.mem prev [ "let"; "val"; "and" ]) then
                issues :=
                  {
                    file;
                    line = ln + 1;
                    rule = "float-eq";
                    message =
                      "polymorphic compare near a float literal: use Float.compare";
                  }
                  :: !issues
            end
            else scan (i + 1)
        in
        scan 0
      end)
    lines_code;
  !issues

(* ------------------------------------------------------------------ *)
(* Rule: global Random module. *)

let random_issues ~file lines_code =
  let issues = ref [] in
  Array.iteri
    (fun ln line ->
      let n = String.length line in
      let rec scan i =
        if i + 7 <= n then
          if
            String.sub line i 7 = "Random."
            && (i = 0 || (not (is_ident_char line.[i - 1]) && line.[i - 1] <> '.'))
          then
            issues :=
              {
                file;
                line = ln + 1;
                rule = "random";
                message =
                  Printf.sprintf "global Random.%s breaks run determinism: use Prng with \
                                  an explicit seed"
                    (token_at line (i + 7));
              }
              :: !issues
          else scan (i + 1)
      in
      scan 0)
    lines_code;
  !issues

(* ------------------------------------------------------------------ *)
(* Rule: bare [assert false]. *)

let assert_false_issues ~file lines_code lines_raw =
  let issues = ref [] in
  Array.iteri
    (fun ln line ->
      let n = String.length line in
      let rec scan i =
        if i + 6 <= n then
          if
            String.sub line i 6 = "assert"
            && (i = 0 || not (is_ident_char line.[i - 1]))
            && String.equal (token_after line (i + 6)) "false"
          then begin
            let documented =
              let lower s = String.lowercase_ascii s in
              let has k = Report.contains_sub (lower lines_raw.(k)) "unreachable" in
              has ln || (ln > 0 && has (ln - 1)) || (ln > 1 && has (ln - 2))
            in
            if not documented then
              issues :=
                {
                  file;
                  line = ln + 1;
                  rule = "assert-false";
                  message =
                    "assert false without an (* unreachable: … *) comment nearby \
                     explaining why the branch cannot be taken";
                }
                :: !issues
          end
          else scan (i + 1)
      in
      scan 0)
    lines_code;
  !issues

(* ------------------------------------------------------------------ *)
(* Rule: new [Hashtbl.create] without an iteration-order comment.  The
   effect pass flags hash-order {e iteration} reachable from simulation
   entry points; this rule makes the discipline explicit at construction
   time — a table is fine if someone wrote down that it is lookup-only
   (or sorted before iteration). *)

let hashtbl_create_issues ~file lines_code lines_raw =
  let issues = ref [] in
  let needle = "Hashtbl.create" in
  let m = String.length needle in
  Array.iteri
    (fun ln line ->
      let n = String.length line in
      let rec scan i =
        if i + m <= n then
          if
            String.sub line i m = needle
            && (i = 0 || (not (is_ident_char line.[i - 1]) && line.[i - 1] <> '.'))
          then begin
            let documented =
              let has k =
                k >= 0
                && k < Array.length lines_raw
                &&
                let lower = String.lowercase_ascii lines_raw.(k) in
                Report.contains_sub lower "deterministic"
                || Report.contains_sub lower "hash-order"
              in
              has ln || has (ln - 1) || has (ln - 2)
            in
            if not documented then
              issues :=
                {
                  file;
                  line = ln + 1;
                  rule = "hashtbl-create";
                  message =
                    "Hashtbl.create without a nearby (* deterministic: … *) or \
                     hash-order comment: iteration order is seed/history-dependent — \
                     say the table is lookup-only (or sorted before iteration), or \
                     use an assoc list / Map";
                }
                :: !issues
          end
          else scan (i + 1)
      in
      scan 0)
    lines_code;
  !issues

(* ------------------------------------------------------------------ *)
(* Rule: formatted printing in a file that declares an allocation-free
   hot path.  The allocation prover bounds what the annotated roots may
   reach, but printing creeps in from debug sessions through cold helpers
   and fresh branches; in hot-path files it is flagged outright — cold
   failure paths raise through invalid_arg/failwith with static messages,
   and reporting belongs to callers outside the hot module.  The file
   gate is the standalone marker line the allocation pass reads, matched
   exactly so prose mentions of the grammar do not arm the rule. *)

let declares_hot_path lines_raw =
  Array.exists
    (fun line -> String.equal (String.trim line) "(* alloc: none *)")
    lines_raw

let hot_path_printf_issues ~file lines_code lines_raw =
  if not (declares_hot_path lines_raw) then []
  else begin
    let issues = ref [] in
    let needles = [ "Printf."; "Format."; "print_" ] in
    Array.iteri
      (fun ln line ->
        List.iter
          (fun needle ->
            let m = String.length needle in
            let n = String.length line in
            let rec scan i =
              if i + m <= n then
                if
                  String.sub line i m = needle
                  && (i = 0 || (not (is_ident_char line.[i - 1]) && line.[i - 1] <> '.'))
                then
                  issues :=
                    {
                      file;
                      line = ln + 1;
                      rule = "hot-path-printf";
                      message =
                        Printf.sprintf
                          "%s%s call in a file with an allocation-free hot path: move \
                           the printing out of the hot module or raise with a static \
                           message, or waive with (* %s hot-path-printf: reason *)"
                          needle
                          (token_at line (i + m))
                          waiver;
                    }
                    :: !issues
                else scan (i + 1)
            in
            scan 0)
          needles)
      lines_code;
    !issues
  end

(* ------------------------------------------------------------------ *)
(* Rule: undocumented mutable field in an interface. *)

let mutable_doc_issues ~file lines_code lines_raw =
  let issues = ref [] in
  Array.iteri
    (fun ln line ->
      if word_before line (String.length line) "mutable" then begin
        let has_doc k =
          k >= 0 && k < Array.length lines_raw && Report.contains_sub lines_raw.(k) "(**"
        in
        let documented =
          has_doc ln || has_doc (ln - 1) || has_doc (ln - 2) || has_doc (ln - 3)
          || has_doc (ln + 1)
        in
        if not documented then
          issues :=
            {
              file;
              line = ln + 1;
              rule = "mutable-doc";
              message =
                "mutable field exposed in an interface without an adjacent (** … *) doc \
                 comment";
            }
            :: !issues
      end)
    lines_code;
  !issues

(* ------------------------------------------------------------------ *)
(* The old text-based [experiment-state] rule (top-level mutable state in
   experiment modules) lived here until PR 3; it is subsumed by the AST
   domain-safety pass in [lib/staticcheck], which resolves module aliases
   and nesting instead of matching column-0 [let]s. *)

let lint_source ~file content =
  let code = blank_non_code content in
  let lines_code = split_lines code in
  let lines_raw = split_lines content in
  let issues =
    if Filename.check_suffix file ".mli" then mutable_doc_issues ~file lines_code lines_raw
    else
      float_eq_issues ~file lines_code
      @ random_issues ~file lines_code
      @ assert_false_issues ~file lines_code lines_raw
      @ hashtbl_create_issues ~file lines_code lines_raw
      @ hot_path_printf_issues ~file lines_code lines_raw
  in
  (* The waiver marker exempts a line from every rule. *)
  Report.drop_waived ~source:content issues

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
