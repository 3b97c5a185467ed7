package main

import (
	"fmt"

	"fixture/internal/p"
)

func main() { fmt.Println(p.Used()) }
