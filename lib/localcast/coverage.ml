type t = { source : int; first : int array; mutable covered : int }

let create ~n ~source =
  if source < 0 || source >= n then
    invalid_arg "Coverage.create: source out of range";
  let first = Array.make n max_int in
  first.(source) <- 0;
  { source; first; covered = 1 }

let observe t record =
  Array.iteri
    (fun v -> function
      | Some (Messages.Data p) when p.Messages.src = t.source && t.first.(v) = max_int ->
          t.first.(v) <- record.Radiosim.Trace.round;
          t.covered <- t.covered + 1
      | _ -> ())
    record.Radiosim.Trace.delivered
