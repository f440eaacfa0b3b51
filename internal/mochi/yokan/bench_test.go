package yokan

import "testing"

func BenchmarkCollectionStoreBatch(b *testing.B) {
	c := new(Collection)
	doc := []byte(`{"key":"('getitem-abc',63)","from":"waiting","to":"processing"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StoreBatch([][]byte{doc})
	}
}
