let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string ~tool issues =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rules =
    List.sort_uniq String.compare (List.map (fun i -> i.Report.rule) issues)
  in
  add "{\n";
  add "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  add "  \"version\": \"2.1.0\",\n";
  add "  \"runs\": [\n";
  add "    {\n";
  add "      \"tool\": {\n";
  add "        \"driver\": {\n";
  add "          \"name\": \"%s\",\n" (escape tool);
  add "          \"rules\": [\n";
  List.iteri
    (fun i r ->
      add "            {\"id\": \"%s\"}%s\n" (escape r)
        (if i = List.length rules - 1 then "" else ","))
    rules;
  add "          ]\n";
  add "        }\n";
  add "      },\n";
  add "      \"results\": [\n";
  List.iteri
    (fun i issue ->
      add
        "        {\"ruleId\": \"%s\", \"level\": \"error\", \"message\": {\"text\": \
         \"%s\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": \
         {\"uri\": \"%s\"}, \"region\": {\"startLine\": %d}}}]}%s\n"
        (escape issue.Report.rule) (escape issue.Report.message)
        (escape issue.Report.file) issue.Report.line
        (if i = List.length issues - 1 then "" else ","))
    issues;
  add "      ]\n";
  add "    }\n";
  add "  ]\n";
  add "}\n";
  Buffer.contents buf

let save ~tool issues ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~tool issues))

(* ------------------------------------------------------------------ *)
(* Reading SARIF back with the shared JSON reader, and a baseline differ
   for CI. *)

module J = Report.Json

let member = J.member

let issue_of_result r =
  let str = function Some (J.Str s) -> Some s | _ -> None in
  let rule = str (member "ruleId" r) in
  let message = str (Option.bind (member "message" r) (member "text")) in
  let location =
    match member "locations" r with Some (J.Arr (l :: _)) -> Some l | _ -> None
  in
  let physical = Option.bind location (member "physicalLocation") in
  let file = str (Option.bind physical (member "artifactLocation") |> fun a -> Option.bind a (member "uri")) in
  let line =
    match Option.bind physical (member "region") |> fun r -> Option.bind r (member "startLine") with
    | Some (J.Num f) -> int_of_float f
    | _ -> 1
  in
  match (rule, message, file) with
  | Some rule, Some message, Some file -> Some { Report.file; line; rule; message }
  | _ -> None

let of_string text =
  let doc =
    try J.parse text with J.Error m -> failwith ("SARIF: " ^ m)
  in
  match member "runs" doc with
  | Some (J.Arr runs) ->
      List.concat_map
        (fun run ->
          match member "results" run with
          | Some (J.Arr results) -> List.filter_map issue_of_result results
          | _ -> [])
        runs
  | _ -> failwith "SARIF: no runs array"

let load path = of_string (Report.read_file path)

(* Baseline comparison for CI: an issue is "the same finding" when file,
   rule and message all match — the line is deliberately ignored so that
   unrelated edits shifting a legacy finding do not break the build. *)
type diff = { fresh : Report.issue list; suppressed : int; stale : int }

let diff_baseline ~baseline ~current =
  let key i = (i.Report.file, i.Report.rule, i.Report.message) in
  let bkeys = List.map key baseline in
  let ckeys = List.map key current in
  {
    fresh = List.filter (fun i -> not (List.mem (key i) bkeys)) current;
    suppressed = List.length (List.filter (fun i -> List.mem (key i) bkeys) current);
    stale = List.length (List.filter (fun k -> not (List.mem k ckeys)) bkeys);
  }
