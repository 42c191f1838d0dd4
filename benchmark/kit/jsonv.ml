(* A small JSON value type with a printer and a parser: enough for the
   benchmark's result lines and results files, with floats (which the
   in-tree [Obs.Json] flat-object parser deliberately excludes). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print without a fraction; others with every digit a
   double carries, so no measurement is rounded on the way out. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num x -> Buffer.add_string b (number x)
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "\"%s\": " (escape k);
          write b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Fail of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Fail (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          if !pos + 1 >= n then fail "bad escape";
          (match s.[!pos + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' when !pos + 5 < n -> (
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 2) 4) with
              | Some c when c < 0x80 ->
                  Buffer.add_char b (Char.chr c);
                  pos := !pos + 4
              | _ -> fail "unsupported \\u escape")
          | _ -> fail "bad escape");
          pos := !pos + 2;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip ();
        if peek () = Some '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | Some ',' -> incr pos; fields ((k, v) :: acc)
            | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        incr pos;
        skip ();
        if peek () = Some ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | Some ',' -> incr pos; items (v :: acc)
            | Some ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        while
          match peek () with
          | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') -> true
          | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> fail "bad number")
    | _ -> fail "unexpected input"
  in
  match
    let v = value () in
    skip ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Fail e -> Error e

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let to_num = function Num x -> Some x | _ -> None

let to_str = function Str s -> Some s | _ -> None
