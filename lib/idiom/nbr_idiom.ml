module Obj = Stdlib.Obj
module Domain = Stdlib.Domain

module Scheme = struct
  module Atomic = struct
    include Stdlib.Atomic

    external make : 'a -> 'a t = "%makemutable"
    external get : 'a t -> 'a = "%atomic_load"
    external exchange : 'a t -> 'a -> 'a = "%atomic_exchange"
    external compare_and_set : 'a t -> 'a -> 'a -> bool = "%atomic_cas"
    external fetch_and_add : int t -> int -> int = "%atomic_fetch_add"
  end
end

module Runtime = struct
  module Domain = Stdlib.Domain
end
