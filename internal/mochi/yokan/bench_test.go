package yokan

import (
	"fmt"
	"testing"
)

func BenchmarkPut(b *testing.B) {
	db := NewDatabase("bench")
	val := []byte("value-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put(fmt.Sprintf("key-%09d", i), val)
	}
}

func BenchmarkGet(b *testing.B) {
	db := NewDatabase("bench")
	for i := 0; i < 10000; i++ {
		db.Put(fmt.Sprintf("key-%09d", i), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get(fmt.Sprintf("key-%09d", i%10000))
	}
}

func BenchmarkCollectionStoreBatch(b *testing.B) {
	c := NewDatabase("bench").Collection("docs")
	doc := []byte(`{"key":"('getitem-abc',63)","from":"waiting","to":"processing"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StoreBatch([][]byte{doc})
	}
}
