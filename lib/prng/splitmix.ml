type t = Rng.t

let create = Rng.create
let of_int = Rng.of_int
let next = Rng.bits64
let split = Rng.split
let copy = Rng.copy
let mix = Rng.mix
