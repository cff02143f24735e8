type t = int * int

let make u v =
  if u = v then invalid_arg "Edge.make: self-loop";
  if u < v then (u, v) else (v, u)

let endpoints e = e

let other (u, v) w =
  if w = u then v
  else if w = v then u
  else invalid_arg "Edge.other: not an endpoint"

let mem_endpoint (u, v) w = w = u || w = v

(* Lexicographic on the int pair, the order [Stdlib.compare] gives,
   without its polymorphic C call. *)
let compare ((u, v) : t) ((u', v') : t) =
  if u <> u' then Int.compare u u' else Int.compare v v'

let equal ((u, v) : t) ((u', v') : t) = u = u' && v = v'
let hash ((u, v) : t) = (u * 1000003) lxor v
let pp ppf (u, v) = Format.fprintf ppf "{%d,%d}" u v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Directed = struct
  type t = int * int

  let make u v =
    if u = v then invalid_arg "Edge.Directed.make: self-loop";
    (u, v)

  let src (u, _) = u
  let dst (_, v) = v
  let rev (u, v) = (v, u)
  let compare = compare
  let equal = equal
  let pp ppf (u, v) = Format.fprintf ppf "(%d->%d)" u v

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Set = Stdlib.Set.Make (Ord)
  module Map = Stdlib.Map.Make (Ord)
end
