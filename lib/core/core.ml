(** Umbrella module: one-stop access to the whole local broadcast layer.

    [Core] simply re-exports the constituent libraries so applications can
    depend on a single name.  See DESIGN.md for the library inventory and
    README.md for a guided tour. *)

module Grammar = Grammar
module Prng = Prng
module Dualgraph = Dualgraph
module Radiosim = Radiosim
module Obs = Obs
module Faults = Faults
module Localcast = Localcast
module Baseline = Baseline
module Macapps = Macapps
module Stats = Stats
module Parallel = Parallel
