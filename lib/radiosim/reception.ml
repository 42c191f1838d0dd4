type sinr = {
  alpha : float;
  beta : float;
  noise : float;
  power : float;
  jam : float;
  near : int;
}

type t = Dual_graph | Sinr of sinr

let dual_graph = Dual_graph

let default_alpha = 3.0
let default_beta = 1.5
let default_noise = 0.01
let default_power = 1.0
let default_near = 2

let validate_sinr { alpha; beta; noise; power; jam; near } =
  let bad fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let finite_pos name v =
    if Float.is_nan v || v <= 0.0 || v = Float.infinity then
      bad "Reception: %s must be a finite positive number, got %g" name v
    else Ok ()
  in
  let finite_nonneg name v =
    if Float.is_nan v || v < 0.0 || v = Float.infinity then
      bad "Reception: %s must be finite and >= 0, got %g" name v
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = finite_pos "alpha" alpha in
  let* () = finite_pos "beta" beta in
  let* () = finite_nonneg "noise" noise in
  let* () = finite_pos "power" power in
  let* () = finite_nonneg "jam" jam in
  if near < 1 then bad "Reception: near must be >= 1, got %d" near else Ok ()

let sinr_exn p =
  match validate_sinr p with
  | Ok () -> Sinr p
  | Error msg -> invalid_arg msg

let sinr ?(alpha = default_alpha) ?(beta = default_beta)
    ?(noise = default_noise) ?(power = default_power) ?jam
    ?(near = default_near) () =
  let jam = match jam with Some j -> j | None -> 1000.0 *. power in
  sinr_exn { alpha; beta; noise; power; jam; near }

let of_spec =
  let set read f p v = Result.map (f p) (read v) in
  let keys =
    Grammar.
      [
        ("alpha", set float (fun p alpha -> { p with alpha }));
        ("beta", set float (fun p beta -> { p with beta }));
        ("noise", set float (fun p noise -> { p with noise }));
        ("power", set float (fun p power -> { p with power }));
        ("jam", set float (fun p jam -> { p with jam }));
        ("near", set int (fun p near -> { p with near }));
      ]
  in
  let defaults =
    { alpha = default_alpha; beta = default_beta; noise = default_noise;
      power = default_power; jam = 1000.0 *. default_power; near = default_near }
  in
  let sinr args =
    Result.bind
      (Option.fold ~none:(Ok defaults) ~some:(Grammar.settings keys defaults) args)
      (fun p -> Result.map (fun () -> Sinr p) (validate_sinr p))
  in
  Grammar.parse "reception"
    (Grammar.tags
       [ ("dual", Grammar.bare Dual_graph); ("dual-graph", Grammar.bare Dual_graph);
         ("sinr", sinr) ])

let to_spec = function
  | Dual_graph -> "dual"
  | Sinr { alpha; beta; noise; power; jam; near } ->
      Printf.sprintf "sinr:alpha=%.17g,beta=%.17g,noise=%.17g,power=%.17g,jam=%.17g,near=%d"
        alpha beta noise power jam near

let name = function Dual_graph -> "dual-graph" | Sinr _ -> "sinr"

let requires_embedding = function Dual_graph -> false | Sinr _ -> true

let pp fmt = function
  | Dual_graph -> Format.fprintf fmt "dual-graph"
  | Sinr { alpha; beta; noise; power; jam; near } ->
      Format.fprintf fmt
        "sinr(alpha=%g beta=%g noise=%g power=%g jam=%g near=%d)" alpha beta
        noise power jam near
