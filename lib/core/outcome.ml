type t =
  | Complete
  | Budget_exhausted of Checkpoint.t
  | Interrupted of Checkpoint.t

let is_complete = function
  | Complete -> true
  | Budget_exhausted _ | Interrupted _ -> false

let resume_token = function
  | Complete -> None
  | Budget_exhausted cp | Interrupted cp -> Some cp
