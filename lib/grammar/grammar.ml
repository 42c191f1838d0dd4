type 'a reader = string -> ('a, string) result

let ( let* ) = Result.bind

let parse grammar read spec =
  Result.map_error (Printf.sprintf "%s spec %S: %s" grammar spec) (read spec)

let fold s = String.lowercase_ascii (String.trim s)

let number what of_string s =
  let s = String.trim s in
  Option.to_result ~none:(Printf.sprintf "%S is not %s" s what) (of_string s)

let int = number "an integer" int_of_string_opt

let finite x = if Float.is_finite x then Some x else None

let float = number "a finite number" (fun s -> Option.bind (float_of_string_opt s) finite)

let split sep s =
  Option.map
    (fun i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)))
    (String.index_opt s sep)

let pair sep a b s =
  match split sep s with
  | None -> Error (Printf.sprintf "missing '%c' in %S" sep (String.trim s))
  | Some (x, y) ->
      let* x = a x in
      let* y = b y in
      Ok (x, y)

let list ?(sep = ',') read s =
  let cons item vs =
    let* v = read item in
    let* vs = vs in
    Ok (v :: vs)
  in
  List.fold_right cons (String.split_on_char sep s) (Ok [])

let expected table = "expected " ^ String.concat " | " (List.map fst table)

let settings keys init s =
  let set acc (key, value) =
    let* acc = acc in
    match List.assoc_opt key keys with
    | Some set -> Result.map_error (Printf.sprintf "%s: %s" key) (set acc value)
    | None -> Error (Printf.sprintf "unknown key %S (%s)" key (expected keys))
  in
  let last (k, v) kvs = if List.mem_assoc k kvs then kvs else (k, v) :: kvs in
  let* kvs = list (pair '=' (fun k -> Ok (fold k)) Result.ok) s in
  List.fold_left set (Ok init) (List.fold_right last kvs [])

type 'a args = string option -> ('a, string) result

let tags table s =
  let tag, args =
    match split ':' s with Some (t, a) -> (fold t, Some a) | None -> (fold s, None)
  in
  match List.assoc_opt tag table with
  | Some read -> read args
  | None -> Error (Printf.sprintf "unknown tag %S (%s)" tag (expected table))

let bare v = function None -> Ok v | Some _ -> Error "this tag takes no ':' arguments"

let args read = function Some a -> read a | None -> Error "this tag needs ':' arguments"

let float_to_string x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x
