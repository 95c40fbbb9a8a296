(* Library facade: the runtime API plus its companion modules. *)
include Sched
module Config = Config
module Scheduler = Scheduler
module Deque = Deque
module Fsync = Fsync
