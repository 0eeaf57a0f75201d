module gadget/bench

go 1.22

require gadget v0.0.0

replace gadget => ../
