module apgas/bench

go 1.22

require apgas v0.0.0

replace apgas => ../
