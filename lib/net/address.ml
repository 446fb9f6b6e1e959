type t = int

let make n =
  if n < 0 then invalid_arg "Address.make: negative";
  n

let to_int a = a
let equal = Int.equal
let compare = Int.compare
let pp ppf a = Format.fprintf ppf "n%d" a
