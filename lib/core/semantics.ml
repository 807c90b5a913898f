type t = Marginal | Strict

let default = Strict

let to_string = function Marginal -> "marginal" | Strict -> "strict"
