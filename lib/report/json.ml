(** Minimal JSON emitter (no external dependencies).

    Produces machine-readable analysis results for downstream tools —
    the paper pitches its output as input to auto-tuners and compilers
    (§II-b, §V-C); this is the interchange format. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else if Float.is_nan f then "null"
  else if f > 0. then "1e999"
  else "-1e999"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    Skope_telemetry.Json_string.add_escaped buf s;
    Buffer.add_char buf '"'
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Skope_telemetry.Json_string.add_escaped buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'
  | Raw text -> Buffer.add_string buf text

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* --- parser (RFC 8259) -------------------------------------------- *)

exception Parse_error of int * string

type parser_state = { text : string; mutable pos : int }

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Parse_error (st.pos, msg))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st (Printf.sprintf "expected %C, found %C" c x)
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.text
    && String.sub st.text st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

(* Encode a Unicode code point as UTF-8 into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "invalid \\u escape (expected four hex digits)"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c ->
      v := (!v lsl 4) lor digit c;
      advance st
    | None -> fail st "unterminated \\u escape");
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 st in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: require a \uXXXX low surrogate *)
            if
              st.pos + 1 < String.length st.text
              && st.text.[st.pos] = '\\'
              && st.text.[st.pos + 1] = 'u'
            then begin
              advance st;
              advance st;
              let lo = hex4 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 buf
                  (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              else fail st "invalid low surrogate"
            end
            else fail st "unpaired high surrogate"
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then
            fail st "unpaired low surrogate"
          else add_utf8 buf cp
        | c -> fail st (Printf.sprintf "invalid escape \\%c" c)));
      go ()
    | Some c when Char.code c < 0x20 ->
      fail st "unescaped control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if peek st = Some '-' then advance st;
  let digits () =
    let n = ref 0 in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
        incr n;
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    if !n = 0 then fail st "expected digit"
  in
  (match peek st with
  | Some '0' -> advance st
  | Some '1' .. '9' -> digits ()
  | _ -> fail st "expected digit");
  (match peek st with
  | Some '.' ->
    is_float := true;
    advance st;
    digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with
    | Some ('+' | '-') -> advance st
    | _ -> ());
    digits ()
  | _ -> ());
  let s = String.sub st.text start (st.pos - start) in
  if !is_float then Float (float_of_string s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> Float (float_of_string s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']' in array"
      in
      List (items [])
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields (kv :: acc)
        | Some '}' ->
          advance st;
          List.rev (kv :: acc)
        | _ -> fail st "expected ',' or '}' in object"
      in
      Obj (fields [])
    end
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string text =
  let st = { text; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos < String.length text then
      Error (Printf.sprintf "byte %d: trailing input after JSON value" st.pos)
    else Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "byte %d: %s" pos msg)

(* --- accessors ----------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
    Some (int_of_float f)
  | _ -> None
