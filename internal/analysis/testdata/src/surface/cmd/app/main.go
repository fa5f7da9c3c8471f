// Fixture: the program that uses the surface/internal/lib exports.
package main

import "surface/internal/lib"

func main() {
	var n lib.Namer = lib.Used()
	println(n.Name())
}
