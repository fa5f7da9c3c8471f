// Fixture: the program that uses the surface/internal/lib exports.
package main

import "surface/internal/lib"

func main() {
	var n lib.Namer = lib.Used()
	println(n.Name())

	c := &lib.Config{Set: 1}
	c.Copied = c.Unwritten
	c.Unwritten = c.Unwritten
	c.Count.Add(1)
	println(c.Sum())
}
