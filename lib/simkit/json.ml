type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emission ---------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_repr x =
  if Float.is_nan x then "null"
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else begin
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  end

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  let rec emit indent v =
    let pad n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
    let sep () = if pretty then Buffer.add_string buf "\n" in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> Buffer.add_string buf (float_repr x)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      sep ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (indent + 1);
          emit (indent + 1) item)
        items;
      sep ();
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      sep ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (indent + 1);
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf (if pretty then ": " else ":");
          emit (indent + 1) item)
        fields;
      sep ();
      pad indent;
      Buffer.add_char buf '}'
  in
  emit 0 v;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let fail_at p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let skip_ws p =
  while
    p.pos < String.length p.src
    && (match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance p
  done

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | _ -> fail_at p (Printf.sprintf "expected %c" c)

let parse_literal p lit value =
  if
    p.pos + String.length lit <= String.length p.src
    && String.sub p.src p.pos (String.length lit) = lit
  then begin
    p.pos <- p.pos + String.length lit;
    value
  end
  else fail_at p (Printf.sprintf "expected %s" lit)

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek p with
    | None -> fail_at p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' ->
      advance p;
      (match peek p with
      | Some '"' -> Buffer.add_char buf '"'; advance p
      | Some '\\' -> Buffer.add_char buf '\\'; advance p
      | Some '/' -> Buffer.add_char buf '/'; advance p
      | Some 'n' -> Buffer.add_char buf '\n'; advance p
      | Some 't' -> Buffer.add_char buf '\t'; advance p
      | Some 'r' -> Buffer.add_char buf '\r'; advance p
      | Some 'b' -> Buffer.add_char buf '\b'; advance p
      | Some 'f' -> Buffer.add_char buf '\012'; advance p
      | Some 'u' ->
        advance p;
        if p.pos + 4 > String.length p.src then fail_at p "truncated \\u escape";
        let hex = String.sub p.src p.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail_at p "bad \\u escape"
        in
        p.pos <- p.pos + 4;
        (* Encode as UTF-8 (surrogate pairs are not recombined; the
           emitter only produces escapes below 0x20, so this is enough
           to round-trip our own documents and accept foreign ones). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> fail_at p "bad escape");
      loop ()
    | Some c -> Buffer.add_char buf c; advance p; loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek p with Some c when is_num_char c -> true | _ -> false) do
    advance p
  done;
  let text = String.sub p.src start (p.pos - start) in
  if text = "" then fail_at p "expected a number";
  let is_integral =
    not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text)
  in
  match (if is_integral then int_of_string_opt text else None) with
  | Some i -> Int i
  | None -> (
    (* Integral text past the int range still reads as a float. *)
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail_at p "malformed number")

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail_at p "unexpected end of input"
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws p;
        let key = parse_string_body p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        fields := (key, v) :: !fields;
        skip_ws p;
        match peek p with
        | Some ',' -> advance p; members ()
        | Some '}' -> advance p
        | _ -> fail_at p "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value p in
        items := v :: !items;
        skip_ws p;
        match peek p with
        | Some ',' -> advance p; elements ()
        | Some ']' -> advance p
        | _ -> fail_at p "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string_body p)
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some 'n' -> parse_literal p "null" Null
  | Some _ -> parse_number p

let of_string s =
  let p = { src = s; pos = 0 } in
  try
    let v = parse_value p in
    skip_ws p;
    if p.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
    else Ok v
  with Parse_error msg -> Error msg

let of_file path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string content

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_number = function
  | Int i -> Some (Float.of_int i)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
