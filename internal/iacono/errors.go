package iacono

import "fmt"

func errMismatch(level, keys, rec int) error {
	return fmt.Errorf("iacono: level %d key-map size %d != recency size %d", level, keys, rec)
}

func errOverCap(level, size, cap int) error {
	return fmt.Errorf("iacono: level %d size %d exceeds capacity %d", level, size, cap)
}

func errTotal(got, want int) error {
	return fmt.Errorf("iacono: total size %d != tracked size %d", got, want)
}

func errStray(level int, key any) error {
	return fmt.Errorf("iacono: level %d key-map leaf %v not in its recency-map", level, key)
}
