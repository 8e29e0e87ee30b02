module fanstore/bench

go 1.22

require fanstore v0.0.0

replace fanstore => ../
