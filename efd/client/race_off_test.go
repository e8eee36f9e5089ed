//go:build !race

package client

const binaryAllocsCeiling = 106
