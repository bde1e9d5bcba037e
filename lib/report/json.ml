(* A small hand-rolled JSON reader, so the repo stays dependency-free.
   It handles the full JSON value grammar (minus \u surrogate pairs and
   non-ASCII escapes, decoded as '?'). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.text
    && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> parse_error "expected %c at offset %d, found %c" ch c.pos x
  | None -> parse_error "expected %c at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.text then parse_error "unterminated string";
    let ch = c.text.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.pos >= String.length c.text then parse_error "unterminated escape";
        let esc = c.text.[c.pos] in
        c.pos <- c.pos + 1;
        (match esc with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if c.pos + 4 > String.length c.text then parse_error "truncated \\u escape";
            let hex = String.sub c.text c.pos 4 in
            c.pos <- c.pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some v -> v
              | None -> parse_error "bad \\u escape %S" hex
            in
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?'
        | _ -> parse_error "bad escape \\%c" esc);
        loop ())
    | ch -> Buffer.add_char buf ch; loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.pos < String.length c.text && numeric c.text.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> parse_error "bad number %S at offset %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin expect c '}'; Obj [] end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> expect c ','; members ((key, v) :: acc)
          | Some '}' -> expect c '}'; Obj (List.rev ((key, v) :: acc))
          | _ -> parse_error "expected , or } at offset %d" c.pos
        in
        members []
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin expect c ']'; Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> expect c ','; elements (v :: acc)
          | Some ']' -> expect c ']'; Arr (List.rev (v :: acc))
          | _ -> parse_error "expected , or ] at offset %d" c.pos
        in
        elements []
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then parse_error "trailing input at offset %d" c.pos;
  v

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
