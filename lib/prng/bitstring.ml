type t = { len : int; data : Bytes.t }

let byte_count len = (len + 7) / 8

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitstring.get: index out of range";
  let byte = Char.code (Bytes.get t.data (i / 8)) in
  byte land (1 lsl (i mod 8)) <> 0

let make_empty len = { len; data = Bytes.make (byte_count len) '\000' }

let set_bit data i =
  let b = Char.code (Bytes.get data (i / 8)) in
  Bytes.set data (i / 8) (Char.chr (b lor (1 lsl (i mod 8))))

let random rng k =
  assert (k >= 0);
  let data = Bytes.create (byte_count k) in
  Rng.fill_bools rng data k;
  { len = k; data }

let of_bools bools =
  let t = make_empty (List.length bools) in
  List.iteri (fun i b -> if b then set_bit t.data i) bools;
  t

let to_bools t = List.init t.len (get t)

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let ones t =
  let count = ref 0 in
  for i = 0 to t.len - 1 do
    if get t i then incr count
  done;
  !count

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let of_string s =
  let t = make_empty (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> set_bit t.data i
      | '0' -> ()
      | _ -> invalid_arg "Bitstring.of_string: expected only '0'/'1'")
    s;
  t

let pp ppf t =
  let limit = 32 in
  if t.len <= limit then Format.pp_print_string ppf (to_string t)
  else
    Format.fprintf ppf "%s...(%d bits)"
      (String.init limit (fun i -> if get t i then '1' else '0'))
      t.len

type cursor = { src : t; mutable pos : int }

let cursor src = { src; pos = 0 }

let remaining c = c.src.len - c.pos

let position c = c.pos

let take_bit c =
  if c.pos >= c.src.len then invalid_arg "Bitstring.take_bit: exhausted";
  let b = get c.src c.pos in
  c.pos <- c.pos + 1;
  b

(* A take of [k] bits past the end fails as [k] calls to [take_bit]
   would: after consuming every remaining bit. *)
let check_take c k =
  if c.pos + k > c.src.len then begin
    c.pos <- c.src.len;
    invalid_arg "Bitstring.take_bit: exhausted"
  end

(* Bits [pos, pos + k) of [data] as an int, bit [pos] least significant,
   for [k <= 56] inside the string: one 8-byte load, or a byte loop over
   the last (at most 7) bytes. *)
let[@inline] window data pos k =
  let byte = pos lsr 3 and len = Bytes.length data in
  let w =
    if byte + 8 <= len then Int64.to_int (Bytes.get_int64_le data byte)
    else begin
      let w = ref 0 in
      for j = len - 1 downto byte do
        w := (!w lsl 8) lor Char.code (Bytes.unsafe_get data j)
      done;
      !w
    end
  in
  (w lsr (pos land 7)) land ((1 lsl k) - 1)

(* The low [k <= 32] bits of [x < 2^32], in reverse order. *)
let[@inline] reverse x k =
  let x = ((x lsr 1) land 0x55555555) lor ((x land 0x55555555) lsl 1) in
  let x = ((x lsr 2) land 0x33333333) lor ((x land 0x33333333) lsl 2) in
  let x = ((x lsr 4) land 0x0F0F0F0F) lor ((x land 0x0F0F0F0F) lsl 4) in
  let x = ((x lsr 8) land 0x00FF00FF) lor ((x land 0x00FF00FF) lsl 8) in
  let x = ((x lsr 16) land 0xFFFF) lor ((x land 0xFFFF) lsl 16) in
  x lsr (32 - k)

let take_int c k =
  assert (k >= 0 && k <= 30);
  check_take c k;
  let pos = c.pos in
  c.pos <- pos + k;
  reverse (window c.src.data pos k) k

let rec all_zero data pos k =
  k <= 0 || (window data pos (min k 30) = 0 && all_zero data (pos + 30) (k - 30))

let take_all_zero c k =
  (* Consume all [k] bits even after seeing a 1, so that nodes sharing a
     seed stay aligned on the same cursor position. *)
  if k <= 0 then true
  else begin
    check_take c k;
    let pos = c.pos in
    c.pos <- pos + k;
    all_zero c.src.data pos k
  end
